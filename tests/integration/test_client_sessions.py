"""Full client-session integration: multi-client, cleanup, re-attestation."""

import pytest

from repro.apps import LibOsRuntime, workload
from repro.client import AttestationFailure, RemoteClient
from repro.core import erebor_boot, published_measurement
from repro.core.channel import SecureChannel, UntrustedProxy
from repro.libos import LibOs
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    machine = CvmMachine(MachineConfig(memory_bytes=768 * MIB))
    return erebor_boot(machine, cma_bytes=96 * MIB)


def session(system, work, request, seed):
    machine = system.machine
    libos = LibOs.boot_sandboxed(system, work.manifest(),
                                 confined_budget=work.profile.heap_bytes
                                 + 2 * MIB)
    rt = LibOsRuntime(libos)
    proxy = UntrustedProxy(system.monitor)
    channel = SecureChannel(system.monitor, libos.sandbox)
    client = RemoteClient(machine.authority, published_measurement(),
                          seed=seed)
    client.connect(proxy, channel)
    client.request(proxy, channel, request)
    work.serve(rt, rt.recv_input())
    return libos, client.fetch_result(proxy, channel)


def test_three_sequential_clients_each_isolated(system):
    outputs = []
    for i in range(3):
        work = workload("helloworld")
        libos, result = session(system, work, b"", seed=40 + i)
        outputs.append(result)
        libos.sandbox.cleanup()
    assert outputs == [b"A" * 10] * 3
    assert system.monitor.stats.sandboxes_created == 3
    # all confined memory is back in the pool after cleanups
    usage = system.machine.phys.usage_by_owner()
    assert not any(k.startswith("sandbox:") for k in usage)


def test_cleanup_wipes_before_next_client(system):
    work = workload("helloworld")
    libos, _ = session(system, work, b"", seed=50)
    frames = list(libos.sandbox.confined_frames)
    libos.sandbox.cleanup()
    phys = system.machine.phys
    for fn in frames[:8]:
        data = phys.frame(fn).data
        assert data is None or bytes(data) == b"\x00" * len(data)


def test_attestation_per_session_binds_fresh_transcripts(system):
    """Two sessions cannot share quotes: report data binds the handshake."""
    machine = system.machine
    work = workload("helloworld")
    libos1 = LibOs.boot_sandboxed(system, work.manifest(),
                                  confined_budget=2 * MIB)
    chan1 = SecureChannel(system.monitor, libos1.sandbox)
    client1 = RemoteClient(machine.authority, published_measurement(), seed=60)
    hello1 = client1.hello()
    reply1 = chan1.handshake(hello1)
    client1.finish(reply1)

    work2 = workload("helloworld")
    libos2 = LibOs.boot_sandboxed(system, work2.manifest(),
                                  confined_budget=2 * MIB)
    chan2 = SecureChannel(system.monitor, libos2.sandbox)
    client2 = RemoteClient(machine.authority, published_measurement(), seed=61)
    client2.hello()
    # replaying session 1's server reply (old quote) into session 2 fails
    with pytest.raises(AttestationFailure):
        client2.finish(reply1)


def test_killed_sandbox_cannot_serve_channel(system):
    from repro.core import PolicyViolation, SandboxViolation
    work = workload("helloworld")
    libos, _ = session(system, work, b"", seed=70)
    with pytest.raises(SandboxViolation):
        system.kernel.syscall(libos.task, "getpid")
    assert libos.sandbox.dead
    with pytest.raises(PolicyViolation):
        libos.sandbox.install_input(b"more data")


def test_monitor_survives_many_denials(system):
    """Policy denials are errors for the kernel, not for the monitor."""
    from repro.core import PolicyViolation
    for _ in range(25):
        with pytest.raises(PolicyViolation):
            system.monitor.ops.write_cr(4, 0)
    assert system.monitor.stats.policy_denials == 25
    # the system still works afterwards
    work = workload("helloworld")
    _, result = session(system, work, b"", seed=80)
    assert result == b"A" * 10

"""Concurrency: multiple sandboxes time-sharing one CVM with isolation."""

import pytest

from repro.apps import LibOsRuntime, workload
from repro.client import RemoteClient
from repro.core import SandboxViolation, erebor_boot, published_measurement
from repro.core.channel import SecureChannel, UntrustedProxy
from repro.libos import LibOs
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    machine = CvmMachine(MachineConfig(memory_bytes=1024 * MIB))
    return erebor_boot(machine, cma_bytes=128 * MIB)


def spawn_session(system, name, secret, seed):
    work = workload("helloworld")
    manifest = work.manifest()
    manifest.name = name
    libos = LibOs.boot_sandboxed(system, manifest, confined_budget=2 * MIB)
    proxy = UntrustedProxy(system.monitor)
    channel = SecureChannel(system.monitor, libos.sandbox)
    client = RemoteClient(system.machine.authority, published_measurement(),
                          seed=seed)
    client.connect(proxy, channel)
    client.request(proxy, channel, secret)
    return work, libos, proxy, channel, client


def test_interleaved_execution_with_scheduler(system):
    """Two locked sandboxes alternate on the CPU; both finish correctly."""
    s1 = spawn_session(system, "svc-a", b"secret-A", 70)
    s2 = spawn_session(system, "svc-b", b"secret-B", 71)
    kernel = system.kernel
    outputs = []
    for work, libos, proxy, channel, client in (s1, s2):
        rt = LibOsRuntime(libos)
        kernel.current = libos.task
        rt.recv_input()
        work.serve(rt, b"")
        outputs.append(client.fetch_result(proxy, channel))
    assert outputs == [b"A" * 10, b"A" * 10]
    # the scheduler actually context-switched between runnable tasks
    assert system.machine.clock.events["context_switch"] > 0


def test_killing_one_sandbox_leaves_the_other_intact(system):
    s1 = spawn_session(system, "victim", b"secret-A", 72)
    s2 = spawn_session(system, "survivor", b"secret-B", 73)
    _, libos1, proxy1, chan1, client1 = s1
    work2, libos2, proxy2, chan2, client2 = s2
    with pytest.raises(SandboxViolation):
        system.kernel.syscall(libos1.task, "getpid")
    assert libos1.sandbox.dead
    assert not libos2.sandbox.dead
    # the survivor still completes its session
    rt = LibOsRuntime(libos2)
    system.kernel.current = libos2.task
    rt.recv_input()
    work2.serve(rt, b"")
    assert client2.fetch_result(proxy2, chan2) == b"A" * 10


def test_no_cross_sandbox_secret_visibility(system):
    s1 = spawn_session(system, "a", b"TOP-SECRET-ALPHA", 74)
    s2 = spawn_session(system, "b", b"TOP-SECRET-BRAVO", 75)
    machine = system.machine
    # each sandbox's confined frames hold only its own secret
    for (_, libos, *_), own, other in (
            (s1, b"TOP-SECRET-ALPHA", b"TOP-SECRET-BRAVO"),
            (s2, b"TOP-SECRET-BRAVO", b"TOP-SECRET-ALPHA")):
        blob = b"".join(
            bytes(machine.phys.frame(fn).data or b"")
            for fn in libos.sandbox.confined_frames)
        assert own in blob
        assert other not in blob
    assert b"TOP-SECRET-ALPHA" not in machine.vmm.observed_blob()


def test_confined_pools_accounted_separately(system):
    s1 = spawn_session(system, "a", b"x", 76)
    s2 = spawn_session(system, "b", b"y", 77)
    usage = system.machine.phys.usage_by_owner()
    ids = [s[1].sandbox.sandbox_id for s in (s1, s2)]
    for sid in ids:
        assert usage[f"sandbox:{sid}"] > 0
    assert usage[f"sandbox:{ids[0]}"] == usage[f"sandbox:{ids[1]}"]

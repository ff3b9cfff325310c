"""Secure channel tests: attested handshake, sealing, padding, proxy."""

import random

import pytest

from repro.client import AttestationFailure, RemoteClient
from repro.core import PolicyViolation, erebor_boot, published_measurement
from repro.core.channel import ClientHello, SecureChannel, UntrustedProxy
from repro.crypto import AeadError, generate_keypair
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def rig():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    system = erebor_boot(machine, cma_bytes=64 * MIB)
    sandbox = system.monitor.create_sandbox("svc", confined_budget=8 * MIB)
    sandbox.declare_confined(1 * MIB)
    channel = SecureChannel(system.monitor, sandbox)
    proxy = UntrustedProxy(system.monitor)
    client = RemoteClient(machine.authority, published_measurement())
    return machine, system, sandbox, channel, proxy, client


def test_full_session_roundtrip(rig):
    machine, system, sandbox, channel, proxy, client = rig
    client.connect(proxy, channel)
    assert client.established and channel.established
    client.request(proxy, channel, b"the-secret-question")
    assert sandbox.locked
    assert sandbox.take_input() == b"the-secret-question"
    sandbox.push_output(b"the-answer")
    assert client.fetch_result(proxy, channel) == b"the-answer"


def test_plaintext_never_visible_to_host_or_proxy(rig):
    machine, system, sandbox, channel, proxy, client = rig
    client.connect(proxy, channel)
    client.request(proxy, channel, b"SECRET-INPUT-42")
    sandbox.push_output(b"SECRET-OUTPUT-43")
    client.fetch_result(proxy, channel)
    blob = machine.vmm.observed_blob()
    assert b"SECRET-INPUT-42" not in blob
    assert b"SECRET-OUTPUT-43" not in blob
    assert not proxy.log.saw(b"SECRET-INPUT-42")
    assert not proxy.log.saw(b"SECRET-OUTPUT-43")


def test_output_padded_to_fixed_buckets(rig):
    machine, system, sandbox, channel, proxy, client = rig
    client.connect(proxy, channel)
    client.request(proxy, channel, b"q")
    sandbox.push_output(b"a")
    r1 = channel.fetch_response()
    sandbox.push_output(b"a" * 900)
    r2 = channel.fetch_response()
    assert len(r1) == len(r2)  # same bucket: size leak closed


def test_client_rejects_wrong_measurement(rig):
    machine, system, sandbox, channel, proxy, _ = rig
    bad_client = RemoteClient(machine.authority, b"\x00" * 48)
    with pytest.raises(AttestationFailure):
        bad_client.connect(proxy, channel)


def test_client_rejects_forged_quote(rig):
    machine, system, sandbox, channel, proxy, client = rig
    from repro.tdx.attestation import AttestationAuthority
    rogue_authority = AttestationAuthority(b"rogue-key")
    rogue_client = RemoteClient(rogue_authority, published_measurement())
    with pytest.raises(AttestationFailure):
        rogue_client.connect(proxy, channel)


def test_client_rejects_transcript_mismatch(rig):
    """An OS impersonating the monitor cannot bind the handshake (C5)."""
    machine, system, sandbox, channel, proxy, client = rig
    hello = client.hello()
    reply = channel.handshake(hello)
    # a MITM swaps in its own DH public value but cannot re-quote
    from dataclasses import replace
    tampered = replace(reply, public=reply.public + 2)
    with pytest.raises(AttestationFailure):
        client.finish(tampered)


def test_record_replay_rejected(rig):
    machine, system, sandbox, channel, proxy, client = rig
    client.connect(proxy, channel)
    record = client.seal_request(b"once")
    channel.deliver_request(record)
    with pytest.raises(AeadError):
        channel.deliver_request(record)


def test_record_tampering_rejected(rig):
    machine, system, sandbox, channel, proxy, client = rig
    client.connect(proxy, channel)
    record = bytearray(client.seal_request(b"data"))
    record[5] ^= 0xFF
    with pytest.raises(AeadError):
        channel.deliver_request(bytes(record))


def test_channel_requires_handshake(rig):
    machine, system, sandbox, channel, proxy, client = rig
    with pytest.raises(PolicyViolation):
        channel.deliver_request(b"xx")
    with pytest.raises(PolicyViolation):
        channel.fetch_response()


def test_device_ioctl_paths(rig):
    machine, system, sandbox, channel, proxy, client = rig
    kernel = system.kernel
    fd = kernel.syscall(sandbox.task, "open",
                        "/dev/erebor-pseudo-io-dev")
    client.connect(proxy, channel)
    client.request(proxy, channel, b"payload")
    assert kernel.syscall(sandbox.task, "ioctl", fd, "input") == b"payload"
    kernel.syscall(sandbox.task, "ioctl", fd, "output", b"done")
    assert client.fetch_result(proxy, channel) == b"done"


def test_device_refuses_non_sandbox_tasks(rig):
    machine, system, sandbox, channel, proxy, client = rig
    kernel = system.kernel
    native = kernel.spawn("native")
    fd = kernel.syscall(native, "open", "/dev/erebor-pseudo-io-dev")
    with pytest.raises(PolicyViolation):
        kernel.syscall(native, "ioctl", fd, "input")


def test_two_clients_two_sandboxes_isolated_keys(rig):
    machine, system, sandbox, channel, proxy, client = rig
    sb2 = system.monitor.create_sandbox("svc2", confined_budget=8 * MIB)
    sb2.declare_confined(1 * MIB)
    chan2 = SecureChannel(system.monitor, sb2)
    client2 = RemoteClient(machine.authority, published_measurement(), seed=99)
    client.connect(proxy, channel)
    client2.connect(proxy, chan2)
    client.request(proxy, channel, b"for-sb1")
    client2.request(proxy, chan2, b"for-sb2")
    assert sandbox.take_input() == b"for-sb1"
    assert sb2.take_input() == b"for-sb2"
    # cross-channel record: client2's record cannot open on channel 1
    with pytest.raises(AeadError):
        channel.deliver_request(client2.seal_request(b"crossed"))


def test_each_channel_on_a_monitor_gets_its_own_ephemeral_key(rig):
    machine, system, sandbox, channel, proxy, client = rig
    channels = [channel]
    for i in range(3):
        sb = system.monitor.create_sandbox(f"svc-{i}",
                                           confined_budget=8 * MIB)
        sb.declare_confined(1 * MIB)
        channels.append(SecureChannel(system.monitor, sb))
    peer = generate_keypair(random.Random(7))
    publics = [chan.handshake(ClientHello(peer.public, b"n" * 16)).public
               for chan in channels]
    assert len(set(publics)) == len(channels)
    # the monitor's first channel keeps the historical default key
    assert publics[0] == generate_keypair(random.Random(0x5EC0)).public

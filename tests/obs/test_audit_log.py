"""Audit log: bounded ring, drop accounting, trace routing (satellite a)."""

import pytest

from repro.core import erebor_boot
from repro.obs.ring import RingBuffer
from repro.vm import CvmMachine, MachineConfig, MIB
from repro import obs


@pytest.fixture
def system():
    return erebor_boot(CvmMachine(MachineConfig(memory_bytes=512 * MIB)),
                       cma_bytes=32 * MIB)


def test_audit_log_is_a_bounded_ring(system):
    monitor = system.monitor
    assert isinstance(monitor.audit_log, RingBuffer)
    assert monitor.audit_log.capacity == monitor.AUDIT_LOG_CAPACITY


def test_audit_log_drops_oldest_beyond_capacity(system):
    monitor = system.monitor
    monitor.audit_log.clear()
    cap = monitor.AUDIT_LOG_CAPACITY
    for i in range(cap + 10):
        monitor.audit("test", f"event {i}")
    assert len(monitor.audit_log) == cap
    assert monitor.audit_log.dropped == 10
    assert monitor.audit_log[0].detail == "event 10"     # oldest survivor
    assert monitor.audit_log[-1].detail == f"event {cap + 9}"


def test_audit_events_route_through_tracer(system):
    tracer, _ = obs.install(system.machine.clock)
    system.monitor.audit("attest", "quote over 64B")
    (event,) = [e for e in tracer.events if e.kind == "audit"]
    assert event.name == "audit:attest"
    assert event.args["detail"] == "quote over 64B"
    # timestamp matches the ring entry's simulated cycle
    assert event.begin == system.monitor.audit_log[-1].cycle


def test_denials_audit_and_count(system):
    from repro.core.policy import PolicyViolation
    from repro.hw import regs
    tracer, _ = obs.install(system.machine.clock)
    with pytest.raises(PolicyViolation):
        system.monitor.ops.write_cr(4, 0)      # clearing pinned bits
    assert system.monitor.stats.policy_denials == 1
    # armed after boot, yet the ledger-backed counter covers the
    # machine's whole life: boot denied nothing, so it still reads 1
    assert obs.snapshot_counter_total(
        obs.metrics_snapshot(system.machine.clock),
        "erebor_policy_denials_total") == 1
    assert any(e.name == "audit:deny" for e in tracer.events)

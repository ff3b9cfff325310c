"""Tracer: nesting, folding, no-op default, and zero simulated cost."""

from repro import obs
from repro.core.emc import EmcCall
from repro.core.microrig import GateRig
from repro.hw.cycles import Cost, CycleClock
from repro.obs.trace import AUDIT, INSTANT, NULL_TRACER, SPAN, Tracer


def test_clock_defaults_to_null_sinks():
    clock = CycleClock()
    assert clock.tracer is NULL_TRACER
    assert not clock.tracer.enabled
    assert not clock.metrics.enabled
    # the null span is a working no-op context manager
    with clock.tracer.span("anything"):
        clock.charge(10)
    clock.tracer.event("x")
    clock.tracer.finish()
    assert clock.cycles == 10


def test_nested_spans_record_paths_and_depths():
    clock = CycleClock()
    tracer, _ = obs.install(clock)
    with tracer.span("outer", cat="t"):
        clock.charge(100, "a")
        with tracer.span("inner"):
            clock.charge(40)
        tracer.event("ping", note="hi")
    events = list(tracer.events)
    inner = next(e for e in events if e.name == "inner")
    outer = next(e for e in events if e.name == "outer")
    ping = next(e for e in events if e.name == "ping")
    assert inner.kind == SPAN and inner.path == ("outer", "inner")
    assert inner.duration == 40 and inner.depth == 1
    assert outer.duration == 140 and outer.depth == 0
    assert ping.kind == INSTANT and ping.args == {"note": "hi"}
    # spans close inner-first, so the buffer orders inner before outer
    assert events.index(inner) < events.index(outer)


def test_folded_self_cycles_exclude_children():
    clock = CycleClock()
    tracer, _ = obs.install(clock)
    with tracer.span("root"):
        clock.charge(100)
        with tracer.span("child"):
            clock.charge(30)
        clock.charge(5)
    assert tracer.folded[("root", "child")] == 30
    assert tracer.folded[("root",)] == 105
    assert tracer.total_attributed() == clock.cycles == 135


def test_finish_closes_open_spans():
    clock = CycleClock()
    tracer, _ = obs.install(clock)
    tracer.span("a").__enter__()
    tracer.span("b").__enter__()
    clock.charge(50)
    assert tracer.total_attributed() == 0     # no root has closed yet
    tracer.finish()
    assert tracer.folded[("a", "b")] == 50
    assert tracer.total_attributed() == 50


def test_folded_aggregate_survives_ring_drops():
    clock = CycleClock()
    tracer, _ = obs.install(clock, capacity=4)
    for _ in range(50):
        with tracer.span("op"):
            clock.charge(7)
    assert tracer.dropped > 0
    assert len(tracer.events) == 4
    # the profile aggregate is exact despite the drops
    assert tracer.folded[("op",)] == 50 * 7 == clock.cycles


def test_audit_records_kind_audit_events():
    clock = CycleClock()
    tracer, _ = obs.install(clock)
    clock.charge(123)
    tracer.audit("deny", "nope")
    (event,) = list(tracer.events)
    assert event.kind == AUDIT
    assert event.name == "audit:deny"
    assert event.begin == event.end == 123
    assert event.args == {"detail": "nope"}


def test_uninstall_restores_null_sinks():
    clock = CycleClock()
    obs.install(clock)
    assert clock.tracer.enabled
    obs.uninstall(clock)
    assert clock.tracer is NULL_TRACER


def test_tracer_never_charges_the_clock():
    """Pure-recording property: spans/events leave the ledger untouched."""
    clock = CycleClock()
    tracer = Tracer(clock)
    before = clock.cycles
    with tracer.span("s", cat="c", arg=1):
        with tracer.span("t"):
            tracer.event("e")
    tracer.audit("k", "d")
    assert clock.cycles == before == 0
    assert clock.by_tag == {} and clock.events == {}


def test_gate_cost_pinned_with_and_without_tracer():
    """The calibrated EMC round trip is 1224 cycles either way (ISSUE)."""
    plain = GateRig()
    assert plain.run_emc(int(EmcCall.NOP)) == Cost.EMC_ROUND_TRIP == 1224

    rigged = GateRig()
    tracer, _ = obs.install(rigged.clock)
    assert rigged.run_emc(int(EmcCall.NOP)) == 1224
    assert any(e.name == "gate:micro" for e in tracer.events)


def test_syscall_cost_identical_with_tracer():
    """A traced syscall charges exactly what an untraced one does: the
    684-cycle round trip plus the handler's own work, cycle for cycle."""
    from repro.vm import CvmMachine, MachineConfig, MIB

    def run(instrumented):
        machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
        kernel = machine.boot_native_kernel()
        task = kernel.spawn("t")
        tracer = None
        if instrumented:
            tracer, _ = obs.install(machine.clock)
        before = machine.clock.cycles
        kernel.syscall(task, "getpid")
        return machine.clock.cycles - before, tracer

    plain_delta, _ = run(False)
    traced_delta, tracer = run(True)
    assert traced_delta == plain_delta >= Cost.SYSCALL_ROUND_TRIP == 684
    span = next(e for e in tracer.events if e.name == "syscall:getpid")
    assert span.duration == traced_delta


# --------------------------------------------------------------------- #
# host-collector batching
# --------------------------------------------------------------------- #

def test_gc_batched_recording_restores_thresholds():
    import gc
    from repro.obs.trace import gc_batched_recording

    before = gc.get_threshold()
    with gc_batched_recording(True):
        assert gc.get_threshold() == gc_batched_recording.THRESHOLDS
    assert gc.get_threshold() == before
    # disabled guard is a no-op
    with gc_batched_recording(False):
        assert gc.get_threshold() == before
    assert gc.get_threshold() == before


def test_gc_batched_recording_restores_on_exception():
    import gc
    from repro.obs.trace import gc_batched_recording

    import pytest

    before = gc.get_threshold()
    with pytest.raises(RuntimeError):
        with gc_batched_recording(True):
            raise RuntimeError("fleet blew up")
    assert gc.get_threshold() == before

"""Flight recorder: trigger-frozen dumps over the tracer's ring.

The recorder is a drop-in :class:`~repro.obs.trace.Tracer` subclass —
every exporter and the profiler must keep working on it unchanged — that
freezes a black-box :class:`~repro.obs.flight.FlightDump` on every
trigger: the last ``LOOKBACK_KCYCLES`` of its own ring, grouped by lane.
"""

import json

from repro.hw.cycles import SERIAL_LANE, CycleClock
from repro.obs.export import chrome_trace, prometheus_text, trace_json
from repro.obs.flight import (LOOKBACK_KCYCLES, MAX_DUMPS, TIMELINE_BUCKETS,
                              FlightRecorder, utilization_timeline)
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import check_flight_dump
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer

#: a gap that ages every earlier record out of the dump window
PAST_WINDOW = LOOKBACK_KCYCLES * 1000 + 10_000


def _recorder(n_cpus: int = 2, **kwargs) -> tuple[CycleClock, FlightRecorder]:
    clock = CycleClock()
    clock.ensure_cpus(n_cpus)
    recorder = FlightRecorder(clock, **kwargs)
    clock.tracer = recorder
    clock.metrics = MetricsRegistry()
    return clock, recorder


def _work(clock, cpu: int, name: str, cycles: int) -> None:
    with clock.on_cpu(cpu):
        with clock.tracer.span(name, cat="test"):
            clock.charge(cycles, "work")


def _names(dump, cpu: int) -> list[str]:
    return [e.name for e in dump.events_by_cpu[cpu]]


# --------------------------------------------------------------------------- #
# dump lanes: the tracer's ring, grouped by executing lane
# --------------------------------------------------------------------------- #

def test_events_land_in_the_executing_cpus_ring():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 100)
    _work(clock, 1, "b", 200)
    clock.tracer.event("serial-note", cat="test")   # no CPU scope
    recorder.trigger("manual")
    (dump,) = recorder.dumps
    assert sorted(dump.events_by_cpu) == [SERIAL_LANE, 0, 1]
    assert _names(dump, 0) == ["a"]
    assert _names(dump, 1) == ["b"]
    assert _names(dump, SERIAL_LANE) == ["serial-note", "flight:manual"]
    # the ring itself still holds everything, in commit order
    assert [e.name for e in recorder.events] == [
        "a", "b", "serial-note", "flight:manual"]


def test_rings_are_bounded_and_count_drops():
    clock, recorder = _recorder(capacity=4)
    for i in range(10):                         # all inside the window
        _work(clock, 0, f"s{i}", 10)
    recorder.trigger("manual")
    (dump,) = recorder.dumps
    assert _names(dump, 0) == ["s7", "s8", "s9"]
    assert _names(dump, SERIAL_LANE) == ["flight:manual"]
    assert dump.dropped == recorder.dropped == 7
    # the drops ended inside the window, so the dump says it is partial
    payload = dump.to_dict()
    check_flight_dump(payload)
    assert payload["dropped"] == 7
    assert payload["window_complete"] is False


def test_a_lane_stays_while_the_ring_holds_one_of_its_records():
    clock, recorder = _recorder(capacity=4)
    _work(clock, 1, "old", 10)
    with clock.on_cpu(0):
        clock.charge(PAST_WINDOW, "gap")
    _work(clock, 0, "new", 10)
    recorder.trigger("manual")                  # ring: old, new, trigger
    assert recorder.dumps[0].events_by_cpu[1] == []    # aged out, lane kept
    _work(clock, 0, "newer", 10)
    recorder.trigger("manual")                  # "old" evicted: lane gone
    assert 1 not in recorder.dumps[1].events_by_cpu
    assert _names(recorder.dumps[1], 0) == ["new", "newer"]


def test_drops_before_the_window_leave_it_complete():
    clock, recorder = _recorder(capacity=4)
    for i in range(10):
        _work(clock, 0, f"s{i}", 10)
    with clock.on_cpu(0):
        clock.charge(PAST_WINDOW, "gap")        # every drop predates it
    _work(clock, 0, "recent", 10)
    recorder.trigger("manual")
    payload = recorder.dumps[0].to_dict()
    check_flight_dump(payload)
    assert payload["dropped"] == 8
    assert payload["window_complete"] is True
    assert [e["name"] for e in payload["per_cpu"]["0"]["events"]] == [
        "recent"]


def test_recorder_reads_but_never_charges_the_clock():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 500)
    before = (clock.cycles, clock.wall_cycles, list(clock.per_cpu))
    recorder.trigger("manual", "probe")
    recorder.dumps[0].to_dict()
    assert (clock.cycles, clock.wall_cycles, list(clock.per_cpu)) == before


# --------------------------------------------------------------------------- #
# triggers freeze dumps
# --------------------------------------------------------------------------- #

def test_trigger_freezes_a_dump_with_the_recent_window():
    clock, recorder = _recorder()
    _work(clock, 0, "ancient", 100)
    with clock.on_cpu(0):
        clock.charge(PAST_WINDOW, "gap")            # ages "ancient" out
    _work(clock, 0, "recent", 100)
    recorder.trigger("test_violation", "something broke")
    (dump,) = recorder.dumps
    assert dump.reason == "test_violation"
    names = _names(dump, 0)
    assert "recent" in names and "ancient" not in names
    assert dump.window_start == dump.cycle - LOOKBACK_KCYCLES * 1000


def test_trigger_event_itself_reaches_the_trace():
    clock, recorder = _recorder()
    recorder.trigger("scrub_leak", "frame 0x40")
    assert any(e.name == "flight:scrub_leak" for e in recorder.events)
    assert recorder.triggers == 1


def test_max_dumps_caps_storage_but_triggers_keep_counting():
    clock, recorder = _recorder()
    for i in range(MAX_DUMPS + 1):
        recorder.trigger("again", str(i))
    assert recorder.triggers == 5
    assert len(recorder.dumps) == 4
    assert [d.detail for d in recorder.dumps] == ["0", "1", "2", "3"]


def test_null_tracer_trigger_is_a_safe_noop():
    assert NULL_TRACER.trigger("anything", "at all") is None


def test_plain_tracer_trigger_records_without_dumping():
    clock = CycleClock()
    tracer = Tracer(clock)
    clock.tracer = tracer
    tracer.trigger("policy_deny", "cr4 write")
    assert any(e.name == "flight:policy_deny" for e in tracer.events)
    assert not hasattr(tracer, "dumps")


# --------------------------------------------------------------------------- #
# the dump payload
# --------------------------------------------------------------------------- #

def test_dump_schema_and_contents(tmp_path):
    clock, recorder = _recorder()
    _work(clock, 0, "span-a", 300)
    _work(clock, 1, "span-b", 700)
    clock.audit_head = "ab" * 32
    recorder.trigger("sandbox_kill", "sandbox #3: EMC quota")
    dump = recorder.dumps[0]
    payload = dump.write(tmp_path / "flight.json")
    check_flight_dump(payload)
    reread = json.loads((tmp_path / "flight.json").read_text())
    assert reread == payload
    assert payload["audit_head"] == "ab" * 32
    assert payload["window"]["end"] == payload["cycle"]
    assert payload["dropped"] == 0 and payload["window_complete"] is True
    names = [e["name"] for e in payload["per_cpu"]["1"]["events"]]
    assert "span-b" in names
    assert dump.event_count() == 3          # two spans + the trigger event


def test_dump_chrome_view_has_one_lane_per_cpu():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 100)
    _work(clock, 1, "b", 100)
    recorder.trigger("manual", "")
    trace = recorder.dumps[0].to_dict()["traceEvents"]
    lanes = {e["args"]["name"]: e["tid"] for e in trace
             if e["name"] == "thread_name"}
    assert lanes == {"cpu0": 1, "cpu1": 2, "serial": 0}
    spans = {e["name"]: e["tid"] for e in trace if e.get("ph") == "X"}
    assert spans["a"] == 1 and spans["b"] == 2


def test_dump_chrome_view_keeps_the_audit_kind():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 100)
    recorder.audit("policy", "cr4 write denied")
    recorder.trigger("policy_deny", "cr4 write")
    dump_view = recorder.dumps[0].to_dict()["traceEvents"]
    whole_ring = chrome_trace(recorder)["traceEvents"]
    for events in (dump_view, whole_ring):
        (audit,) = [e for e in events if e["name"] == "audit:policy"]
        assert audit["ph"] == "i"
        assert audit["args"]["kind"] == "audit"


# --------------------------------------------------------------------------- #
# utilization timeline
# --------------------------------------------------------------------------- #

def test_utilization_timeline_busy_fractions():
    busy = TraceEvent("w", "t", "span", begin=0, end=500, depth=0,
                      path=("w",), cpu=0)
    idle_then_busy = TraceEvent("w", "t", "span", begin=500, end=1000,
                                depth=0, path=("w",), cpu=1)
    serial = TraceEvent("s", "t", "span", begin=0, end=1000, depth=0,
                        path=("s",), cpu=None)
    timeline = utilization_timeline({0: [busy], 1: [idle_then_busy],
                                     SERIAL_LANE: [serial]}, 0, 1000)
    half = TIMELINE_BUCKETS // 2
    assert timeline["cpus"]["0"] == [1.0] * half + [0.0] * half
    assert timeline["cpus"]["1"] == [0.0] * half + [1.0] * half
    assert str(SERIAL_LANE) not in timeline["cpus"]   # barrier work: no lane
    assert timeline["buckets"] == TIMELINE_BUCKETS == 20
    assert timeline["bucket_cycles"] == 50.0


def test_utilization_merges_nested_spans_without_double_count():
    outer = TraceEvent("o", "t", "span", begin=0, end=100, depth=0,
                       path=("o",), cpu=0)
    inner = TraceEvent("i", "t", "span", begin=20, end=80, depth=1,
                       path=("o", "i"), cpu=0)
    timeline = utilization_timeline({0: [outer, inner]}, 0, 100)
    # union, not 1.6 where the spans overlap
    assert timeline["cpus"]["0"] == [1.0] * TIMELINE_BUCKETS


# --------------------------------------------------------------------------- #
# drop-in Tracer compatibility: every exporter works unchanged
# --------------------------------------------------------------------------- #

def test_exporters_work_on_a_flight_recorder():
    clock, recorder = _recorder()
    _work(clock, 0, "gate", 100)
    recorder.finish()
    trace = chrome_trace(recorder)
    assert any(e.get("ph") == "X" and e["name"] == "gate"
               for e in trace["traceEvents"])
    data = trace_json(recorder)
    assert data["events"] and data["dropped"] == 0
    text = prometheus_text(clock, recorder)
    assert "erebor_obs_trace_dropped_events_total 0" in text


def test_chrome_trace_places_cpu_events_on_their_own_lane():
    clock, recorder = _recorder()
    _work(clock, 1, "on-cpu-1", 50)
    clock.tracer.event("serial", cat="test")
    trace = chrome_trace(recorder)
    by_name = {e["name"]: e for e in trace["traceEvents"]}
    assert by_name["on-cpu-1"]["tid"] == 1 + 1 + 1   # base tid 1 + cpu 1 + 1
    assert by_name["serial"]["tid"] == 1             # base lane
    assert by_name["thread_name"]["args"]["name"] == "cpu1"

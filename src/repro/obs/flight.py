"""Flight recorder: black-box dumps cut from the tracer's own ring.

A :class:`FlightRecorder` is a :class:`~repro.obs.trace.Tracer` (every
exporter, the profiler, and the bundle harness work on it unchanged)
that freezes a :class:`FlightDump` when a trigger fires — a security
violation, a C1–C8 check failure, an SLO breach (see
:meth:`~repro.obs.trace.NullTracer.trigger` call sites in
``core/monitor.py``, ``core/sandbox.py``, ``fleet/pool.py`` and the SLO
monitor). A dump is a window over the ring the tracer already keeps: the
records that ended within the last :data:`LOOKBACK_KCYCLES` kilocycles,
grouped by executing lane. It is a self-describing JSON payload that
also carries a Chrome ``traceEvents`` view (one thread lane per CPU),
the audit-chain head digest at the moment of the trigger, and a per-CPU
utilization timeline.

Records enter the ring in nondecreasing ``end`` order (the clock only
moves forward and audits are stamped with ``clock.cycles``), so the
window is a suffix of the ring, and the ring's drop count says exactly
whether the window is whole: it is unless a dropped record could have
ended inside it.

Like every obs component the recorder only *reads* the cycle clock; it
never charges it, so the simulated timeline is byte-identical with the
recorder on or off (the overhead benchmark pins this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..hw.cycles import SERIAL_LANE
from .export import chrome_events
from .ledger import capture_ledger, lane_name
from .schema import check_flight_dump
from .trace import DEFAULT_CAPACITY, SPAN, TraceEvent, Tracer

#: buckets in the per-CPU utilization timeline of each dump
TIMELINE_BUCKETS = 20

#: dump window: keep records ending within the last N kilocycles
LOOKBACK_KCYCLES = 50

#: freeze at most this many dumps (later triggers only count)
MAX_DUMPS = 4


class FlightRecorder(Tracer):
    """Recording tracer that freezes black-box dumps on triggers."""

    __slots__ = ("dumps", "triggers")

    def __init__(self, clock, capacity: int = DEFAULT_CAPACITY):
        super().__init__(clock, capacity=capacity)
        self.dumps: list[FlightDump] = []
        self.triggers = 0

    def trigger(self, reason: str, detail: str = "") -> None:
        """Record the trigger event, then freeze a black-box dump.

        The dump names the request trace ID bound at the moment of the
        trigger (when any) — the offending request is the exemplar the
        on-call flow starts from (``repro.obs.reqtrace`` resolves it to
        the full causal span tree).
        """
        super().trigger(reason, detail)       # instant flight:<reason> event
        self.triggers += 1
        if len(self.dumps) < MAX_DUMPS:
            self.dumps.append(self._freeze(reason, detail))

    def _freeze(self, reason: str, detail: str) -> "FlightDump":
        now = self.clock.cycles
        window_start = max(0, now - LOOKBACK_KCYCLES * 1000)
        ring = self.events
        window: list[TraceEvent] = []
        for event in reversed(ring):          # ends are nondecreasing, so
            if event.end < window_start:      # the window is a suffix
                break
            window.append(event)
        # a lane is in the dump iff the ring still holds a record from it
        lanes = {SERIAL_LANE if e.cpu is None else e.cpu for e in ring}
        events_by_cpu: dict[int, list[TraceEvent]] = {
            cpu: [] for cpu in sorted(lanes)}
        for event in reversed(window):
            cpu = event.cpu
            events_by_cpu[SERIAL_LANE if cpu is None else cpu].append(event)
        dropped = ring.dropped
        return FlightDump(
            reason=reason, detail=detail, cycle=now,
            window_start=window_start,
            audit_head=getattr(self.clock, "audit_head", ""),
            wall_cycles=self.clock.wall_cycles,
            per_cpu_cycles=list(self.clock.per_cpu),
            events_by_cpu=events_by_cpu,
            dropped=dropped,
            window_complete=dropped == 0 or ring[0].end < window_start,
            trace_id=self._trace or "",
            # where the budget stood when the box froze: the postmortem
            # can see which plane was eating the machine at the trigger
            ledger=capture_ledger(self.clock),
        )

    def __repr__(self) -> str:
        return (f"FlightRecorder({len(self.events)} events, "
                f"{self.triggers} triggers, {len(self.dumps)} dumps)")


@dataclass
class FlightDump:
    """One frozen black box: the recent past of every core at a trigger."""

    reason: str
    detail: str
    cycle: int                      # trigger timestamp (serial clock)
    window_start: int               # oldest cycle retained in the dump
    audit_head: str                 # audit-chain head at freeze time
    wall_cycles: int
    per_cpu_cycles: list[int]
    events_by_cpu: dict[int, list[TraceEvent]]
    #: records the tracer ring had discarded when the box froze
    dropped: int
    #: no discarded record could have ended inside the window
    window_complete: bool
    #: request trace ID bound when the trigger fired ("" = none bound)
    trace_id: str = ""
    #: plane-attribution budget snapshot at freeze time (repro.obs.ledger)
    ledger: dict = field(default_factory=dict)

    def event_count(self) -> int:
        return sum(len(v) for v in self.events_by_cpu.values())

    def to_dict(self) -> dict:
        per_cpu = {
            "serial" if cpu == SERIAL_LANE else str(cpu):
                {"events": [e.to_dict() for e in events]}
            for cpu, events in sorted(self.events_by_cpu.items())}
        return {
            "reason": self.reason,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "cycle": self.cycle,
            "window": {
                "start": self.window_start,
                "end": self.cycle,
                "lookback_kcycles": LOOKBACK_KCYCLES,
            },
            "dropped": self.dropped,
            "window_complete": self.window_complete,
            "audit_head": self.audit_head,
            "wall_cycles": self.wall_cycles,
            "per_cpu_cycles": list(self.per_cpu_cycles),
            "per_cpu": per_cpu,
            "ledger": dict(self.ledger),
            "utilization": utilization_timeline(
                self.events_by_cpu, self.window_start, self.cycle),
            "traceEvents": self._chrome_events(),
        }

    def _chrome_events(self) -> list[dict]:
        """Chrome ``trace_event`` view: one thread lane per CPU."""
        lanes = sorted(self.events_by_cpu)

        def tid(cpu: int) -> int:
            return 0 if cpu == SERIAL_LANE else cpu + 1

        return chrome_events(
            f"erebor-flight:{self.reason}",
            {tid(cpu): lane_name(cpu) for cpu in lanes},
            ((tid(cpu), e) for cpu in lanes for e in self.events_by_cpu[cpu]))

    def write(self, path: str | Path) -> dict:
        """Serialize the dump to ``path``; returns the dict written."""
        payload = self.to_dict()
        Path(path).write_text(json.dumps(payload, indent=2))
        return payload


def flight_payload(recorder: FlightRecorder) -> dict:
    """The black-box file of one run: ``{"triggers", "dumps"}``.

    A run with no trigger still produces a useful black box: the recorder
    is asked for one end-of-run dump so the payload is never empty. Every
    dump is schema-checked before it is returned.
    """
    if not recorder.dumps:
        recorder.trigger("manual", "end-of-run flight dump")
    dumps = [d.to_dict() for d in recorder.dumps]
    for dump in dumps:
        check_flight_dump(dump)
    return {"triggers": recorder.triggers, "dumps": dumps}


def utilization_timeline(events_by_cpu: dict[int, list[TraceEvent]],
                         start: int, end: int) -> dict:
    """Per-CPU busy fraction over :data:`TIMELINE_BUCKETS` equal slices of
    [start, end].

    Busy time is the interval *union* of span events per core (nested
    spans never double-count), clipped to the window. Serial-section
    records (cpu ``SERIAL_LANE``) are excluded: barrier work belongs to no
    single core.
    """
    buckets = TIMELINE_BUCKETS
    width = max(end - start, 1) / buckets
    timeline: dict[str, list[float]] = {}
    for cpu, events in sorted(events_by_cpu.items()):
        if cpu == SERIAL_LANE:
            continue
        intervals = sorted(
            (max(e.begin, start), min(e.end, end))
            for e in events if e.kind == SPAN and e.end > start)
        merged: list[list[int]] = []
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        fractions = []
        for b in range(buckets):
            b_lo = start + b * width
            b_hi = start + (b + 1) * width
            covered = sum(max(0.0, min(hi, b_hi) - max(lo, b_lo))
                          for lo, hi in merged)
            fractions.append(round(covered / width, 6))
        timeline[str(cpu)] = fractions
    return {
        "start": start, "end": end, "buckets": buckets,
        "bucket_cycles": round(width, 6), "cpus": timeline,
    }

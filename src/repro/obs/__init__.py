"""``repro.obs`` — unified observability: tracing, metrics, exporters.

A zero-dependency observability subsystem threaded through the whole
stack. Four pieces:

* :mod:`repro.obs.trace` — structured spans/events timestamped on the
  simulated :class:`~repro.hw.cycles.CycleClock` (never wall-clock), in a
  bounded ring buffer, with nested-span support. Off by default: every
  clock carries the no-op :data:`NULL_TRACER` until :func:`install`.
* :mod:`repro.obs.metrics` — counters/gauges/histograms keyed by
  ``(name, labels)``: per-sandbox EMC counts, exit classes, page-fault
  and PKRS-toggle totals, syscall latency histograms. Counters the
  simulator already counts on the clock are views over its event ledger.
* :mod:`repro.obs.export` — Prometheus text, plain JSON, and Chrome
  ``trace_event`` output (loads directly in Perfetto).
* :mod:`repro.obs.profile` — collapsed flamegraph stacks attributing
  every simulated cycle to a call path.
* :mod:`repro.obs.reqtrace` — request-scoped causal tracing: one
  deterministic trace ID per fleet session, bound through every layer,
  rebuilt into per-request span trees (text tree / one-lane-per-request
  Chrome trace / seeded-run-stable digests).
* :mod:`repro.obs.hostprof` — host wall-clock attribution (the one
  deliberate D1 exemption): where real seconds go — fetch/decode, MMU
  walks, EMC dispatch, tracer emit, crypto — as a ranked table and
  collapsed-stack flamegraph.
* :mod:`repro.obs.ledger` — the plane-attribution budget ledger: every
  simulated cycle assigned to a named plane per execution lane, with a
  bit-exact conservation invariant against the clock's busy/wall
  ledgers.
* :mod:`repro.obs.diff` — differential run comparator (``python -m
  repro.obs diff A B``) and its simulated-divergence gate.

Observability *reads* the clock and never charges it: enabling a tracer
changes no calibrated number (empty EMC stays 1224 cycles, empty syscall
684 — test-enforced).

Quickstart::

    from repro import obs
    tracer, registry = obs.install(machine.clock)
    ... run anything ...
    tracer.finish()
    obs.write_chrome_trace(tracer, "trace.json")   # open in Perfetto
    print(obs.prometheus_text(machine.clock))

Or from the command line::

    python -m repro.obs --workload helloworld --export chrome -o trace.json

This ``__init__`` only imports the stdlib-level leaves (``trace``,
``metrics``, ``ring``) eagerly — :mod:`repro.hw.cycles` imports them, so
anything heavier is loaded lazily via module ``__getattr__``.
"""

from __future__ import annotations

from .._lazy import lazy_exports
from .metrics import (
    DEFAULT_BUCKETS,
    EwmaDetector,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    WindowedHistogram,
    label_key,
    ledger_counters,
    metrics_snapshot,
    parse_label_key,
    snapshot_counter_total,
)
from .ring import RingBuffer
from .trace import (
    AUDIT,
    DEFAULT_CAPACITY,
    INSTANT,
    NULL_TRACER,
    NullTracer,
    SPAN,
    TraceEvent,
    Tracer,
)

__all__ = [
    "AUDIT", "DEFAULT_BUCKETS", "DEFAULT_CAPACITY", "EwmaDetector",
    "FlightDump", "FlightRecorder", "HostProfiler",
    "INSTANT", "MetricsRegistry", "NULL_METRICS", "NULL_TRACER",
    "NullMetrics", "NullTracer", "RequestTraceIndex", "RingBuffer",
    "SPAN", "TraceEvent", "Tracer", "WindowedHistogram",
    "capture_ledger", "chrome_trace", "check_chrome_trace",
    "check_diff_report", "check_export", "check_flight_dump",
    "check_hostprof_report", "check_ledger", "collapsed_stacks",
    "diff_any", "diff_bundles", "diff_digest_maps",
    "gate_report", "hotspots", "install", "label_key", "ledger_counters",
    "metrics_snapshot", "mint_trace_id", "parse_label_key",
    "profile_fleet", "profile_report", "prometheus_text", "run_observed",
    "snapshot_counter_total", "total_attributed",
    "trace_json", "uninstall", "utilization_timeline",
    "verify_conservation", "write_chrome_trace",
]

#: lazy re-exports → (module, attribute); avoids import cycles with hw/bench
_LAZY = {
    "chrome_trace": ("export", "chrome_trace"),
    "write_chrome_trace": ("export", "write_chrome_trace"),
    "trace_json": ("export", "trace_json"),
    "prometheus_text": ("export", "prometheus_text"),
    "collapsed_stacks": ("profile", "collapsed_stacks"),
    "total_attributed": ("profile", "total_attributed"),
    "hotspots": ("profile", "hotspots"),
    "profile_report": ("profile", "profile_report"),
    "check_export": ("schema", "check_export"),
    "check_chrome_trace": ("schema", "check_chrome_trace"),
    "check_flight_dump": ("schema", "check_flight_dump"),
    "check_hostprof_report": ("schema", "check_hostprof_report"),
    "run_observed": ("harness", "run_observed"),
    "FlightDump": ("flight", "FlightDump"),
    "FlightRecorder": ("flight", "FlightRecorder"),
    "utilization_timeline": ("flight", "utilization_timeline"),
    "RequestTraceIndex": ("reqtrace", "RequestTraceIndex"),
    "mint_trace_id": ("reqtrace", "mint_trace_id"),
    "HostProfiler": ("hostprof", "HostProfiler"),
    "profile_fleet": ("hostprof", "profile_fleet"),
    "capture_ledger": ("ledger", "capture_ledger"),
    "verify_conservation": ("ledger", "verify_conservation"),
    "diff_any": ("diff", "diff_any"),
    "diff_bundles": ("diff", "diff_bundles"),
    "diff_digest_maps": ("diff", "diff_digest_maps"),
    "gate_report": ("diff", "gate_report"),
    "check_ledger": ("schema", "check_ledger"),
    "check_diff_report": ("schema", "check_diff_report"),
}


__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)


def install(clock, *, trace: bool = True, metrics: bool = True,
            capacity: int = DEFAULT_CAPACITY, flight: bool = False):
    """Attach observability to a clock; returns ``(tracer, registry)``.

    With ``trace=False`` (or ``metrics=False``) the corresponding no-op
    sink is left in place and returned, so callers can always use the
    return values unconditionally. ``flight=True`` swaps the plain tracer
    for a :class:`~repro.obs.flight.FlightRecorder` — a drop-in Tracer
    that additionally freezes a black-box dump on every trigger.
    """
    if flight and trace:
        from .flight import FlightRecorder
        tracer = FlightRecorder(clock, capacity=capacity)
    else:
        tracer = Tracer(clock, capacity=capacity) if trace else clock.tracer
    registry = MetricsRegistry() if metrics else clock.metrics
    clock.tracer = tracer
    clock.metrics = registry
    return tracer, registry


def uninstall(clock) -> None:
    """Detach observability: restore the no-op tracer and registry."""
    clock.tracer = NULL_TRACER
    clock.metrics = NULL_METRICS

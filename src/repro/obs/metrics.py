"""Metrics: counters, gauges and histograms keyed by (name, labels).

This is the quantitative half of ``repro.obs``: where the trace layer
answers *when*, the metrics answer *how many / how much* — per-sandbox
EMC counts, exit-class breakdowns, page-fault and PKRS-toggle totals,
syscall latency histograms. The counters in :data:`LEDGER_COUNTERS` are
views over the clock's event ledger, which records their label values
(:meth:`~repro.hw.cycles.CycleClock.count`); like any Prometheus counter
they cover the machine's whole life. :class:`MetricsRegistry` holds the
rest. :func:`metrics_snapshot` joins the two for every exporter.

Label sets are stored as canonical ``"k=v,k2=v2"`` strings (sorted by
key), which keeps snapshots JSON-able with no conversion. Like the
tracer, the registry never touches the cycle clock; it exists purely on
the host side.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from collections import deque

#: default histogram bucket upper bounds (simulated cycles)
DEFAULT_BUCKETS = (250, 700, 1300, 2500, 5000, 10_000, 30_000,
                   100_000, 1_000_000)

#: how many of its latest samples a :class:`WindowedHistogram` keeps:
#: nearest-rank p99 needs more than 100 before it differs from the max
WINDOW_SAMPLES = 128

#: :class:`EwmaDetector` smoothing, alert threshold (in deviations) and
#: warm-up samples
EWMA_ALPHA = 0.3
EWMA_THRESHOLD = 3.0
EWMA_MIN_SAMPLES = 4


#: (label items, in call-site order) → canonical key. Bounded: label
#: cardinality is small by design (tenants, sandboxes, exit classes);
#: the cap only guards against a pathological unbounded-label caller.
_KEY_CACHE: dict[tuple, str] = {}
_KEY_CACHE_MAX = 4096


def label_key(labels: dict) -> str:
    """Canonical series key for a label dict: ``"k=v,k2=v2"`` sorted.

    The hot path of every counter increment — a fleet run computes
    hundreds of thousands of keys from a few dozen distinct label sets,
    so the sorted join is memoized on the (insertion-ordered) items
    tuple. Two call sites passing the same labels in different kwarg
    order miss each other's cache line but still canonicalize to the
    same key.
    """
    if not labels:
        return ""
    items = tuple(labels.items())
    key = _KEY_CACHE.get(items)
    if key is None:
        key = ",".join(f"{k}={v}" for k, v in sorted(items))
        if len(_KEY_CACHE) < _KEY_CACHE_MAX:
            _KEY_CACHE[items] = key
    return key


def parse_label_key(key: str) -> dict:
    """Inverse of :func:`label_key` (empty string → no labels)."""
    if not key:
        return {}
    return dict(part.split("=", 1) for part in key.split(","))


def labels_match(key: str, match: dict) -> bool:
    """True if the series ``key`` carries every label in ``match``."""
    if not match:
        return True
    labels = parse_label_key(key)
    return all(labels.get(k) == str(v) for k, v in match.items())


class HistogramHandle:
    """Pre-resolved writer for one histogram series.

    The kwargs form (:meth:`MetricsRegistry.observe`) builds a label
    dict and canonicalizes it on every call; a handle does that
    resolution once, so an instrumented hot path (the EMC gate samples
    ``erebor_emc_cycles`` per round trip, ~100k times per fleet run)
    pays only the bucket update and allocates nothing.
    """

    __slots__ = ("_hist", "_bounds", "_buckets", "_n")

    def __init__(self, hist: dict):
        self._hist = hist
        self._bounds = hist["bounds"]
        self._buckets = hist["buckets"]
        self._n = len(self._bounds)

    def observe(self, value: float) -> None:
        i = bisect_left(self._bounds, value)
        if i < self._n:
            self._buckets[i] += 1
        hist = self._hist
        hist["sum"] += value
        hist["count"] += 1

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` identical samples (batched gate dispatch).

        Exactly equivalent to ``n`` `observe` calls: the bucket, sum and
        count updates all scale linearly in the sample count.
        """
        i = bisect_left(self._bounds, value)
        if i < self._n:
            self._buckets[i] += n
        hist = self._hist
        hist["sum"] += value * n
        hist["count"] += n


class _NullHandle:
    """Write handle of the disabled registry (shared no-op singleton)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        return None

    def observe_n(self, value: float, n: int) -> None:
        return None


NULL_HANDLE = _NullHandle()


class HandleCache:
    """Per-instrumentation-site cache of pre-resolved write handles.

    Handles bind dicts inside one concrete registry, so a cache must be
    invalidated when the machine's registry identity changes (e.g.
    :func:`repro.obs.install` arming a fresh registry mid-life). Call
    sites do ``handles = cache.get(metrics, key)`` and on a miss build
    the handle tuple and :meth:`put` it; the identity guard is one
    ``is`` check per lookup.
    """

    __slots__ = ("_metrics", "_handles")

    def __init__(self):
        self._metrics = None
        self._handles: dict = {}

    def get(self, metrics, key):
        if self._metrics is not metrics:
            self._metrics = metrics
            self._handles.clear()
        return self._handles.get(key)

    def put(self, key, handles):
        self._handles[key] = handles
        return handles


def owner_label(owner) -> str:
    """``sandbox`` label of a raw event owner: its sandbox ID, or
    ``"kernel"`` for None (see :func:`repro.kernel.process.sandbox_owner`)."""
    return "kernel" if owner is None else str(owner)


#: counter series that are views over the clock's event ledger: series
#: name → (event names, label names, in the order ``clock.count`` records
#: the values after the name); a series sums all of its events
LEDGER_COUNTERS = {
    "erebor_cow_breaks_total": (("cow_break",), ("sandbox",)),
    "erebor_emc_total": (("emc",), ("cls", "sandbox")),
    "erebor_exits_total": (("sandbox_exit", "kernel_exit"),
                           ("cls", "sandbox")),
    "erebor_policy_denials_total": (("policy_denial",), ()),
    "erebor_sandbox_exits_total": (("sandbox_exit",), ("cls", "sandbox")),
    "erebor_sandbox_reuse_total": (("sandbox_warm_reset",), ("sandbox",)),
    "erebor_sandboxes_created_total": (("sandbox_created",), ()),
    "erebor_sandboxes_killed_total": (("sandbox_killed",), ()),
    "erebor_templates_sealed_total": (("template_sealed",), ("template",)),
    "kernel_page_faults_total": (("page_fault",), ("sandbox",)),
    "kernel_syscalls_total": (("syscall",), ("name", "sandbox")),
    "kernel_timer_ticks_total": (("timer_interrupt",), ()),
    "kernel_ve_total": (("ve",), ("reason",)),
    "tdx_tdcalls_total": (("tdcall",), ("leaf",)),
}

#: event name → [(series name, label names)]: the inverse of the above
_LEDGER_SERIES = {
    event: [(name, labels) for name, (events, labels)
            in LEDGER_COUNTERS.items() if event in events]
    for events, _labels in LEDGER_COUNTERS.values() for event in events}

#: ``erebor_pkrs_toggles_total`` is derived from the ledger too. Each pass
#: through a monitor gate writes IA32_PKRS twice: once on entry to open
#: the monitor's protection keys, once on return to close them. Two gates
#: are passed: the EMC gate (every ``emc`` event) and the interrupt gate,
#: through which the monitor interposes page-fault and interrupt exits.
#: Syscall and #VE exits are inspected without an interrupt-gate pass
#: (no ``int_gate`` charge), so they write no PKRS.
PKRS_GATE_EXITS = ("pagefault", "irq")


def ledger_counters(clock) -> dict[str, dict[str, int]]:
    """Render the :data:`LEDGER_COUNTERS` series and the PKRS-write
    count from ``clock``'s lanes (read-only); a series appears once one
    of its events has been counted."""
    out: dict[str, dict[str, int]] = {}
    exit_events = LEDGER_COUNTERS["erebor_exits_total"][0]
    gate_passes = 0
    for ledger in clock.events_by_cpu.values():
        for key, n in ledger.items():
            event, *values = key if key.__class__ is tuple else (key,)
            if event == "emc" or (event in exit_events
                                  and values[0] in PKRS_GATE_EXITS):
                gate_passes += n
            for name, label_names in _LEDGER_SERIES.get(event, ()):
                labels = {label: owner_label(value) if label == "sandbox"
                          else value
                          for label, value in zip(label_names, values)}
                series = out.setdefault(name, {})
                series_key = label_key(labels)
                series[series_key] = series.get(series_key, 0) + n
    if gate_passes:
        out["erebor_pkrs_toggles_total"] = {"": 2 * gate_passes}
    return out


def metrics_snapshot(clock) -> dict:
    """``clock.metrics.snapshot()`` holding every counter series: the
    registry's own and :func:`ledger_counters`, sorted by name and by
    label set (the order the Prometheus text renders them in)."""
    snap = clock.metrics.snapshot()
    counters = {**snap["counters"], **ledger_counters(clock)}
    snap["counters"] = {name: dict(sorted(counters[name].items()))
                        for name in sorted(counters)}
    return snap


def _nearest_rank(values: list, q: float):
    """The ``q`` quantile of sorted ``values`` by nearest rank (None if
    empty)."""
    if not values:
        return None
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]


class WindowedHistogram:
    """Deterministic sliding-window value store over the last
    :data:`WINDOW_SAMPLES` samples of its series.

    Counted in samples, the window fills on every workload, however
    long each request runs. Percentiles use the nearest-rank method (integer inputs → integer
    outputs, no interpolation drift).
    """

    __slots__ = ("_values",)

    def __init__(self):
        self._values: deque = deque(maxlen=WINDOW_SAMPLES)

    def observe(self, value) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    def quantile(self, q: float):
        """Nearest-rank quantile of the retained values (None if empty)."""
        return _nearest_rank(sorted(self._values), q)

    def quantiles(self) -> dict:
        """The p50/p95/p99 summary the SLO monitors and snapshots use."""
        values = sorted(self._values)
        return {"count": len(values), "p50": _nearest_rank(values, 0.50),
                "p95": _nearest_rank(values, 0.95),
                "p99": _nearest_rank(values, 0.99)}

    def __repr__(self) -> str:
        return f"WindowedHistogram({self.count}/{WINDOW_SAMPLES} values)"


class EwmaDetector:
    """One-sided EWMA baseline detector: flags samples far above trend.

    Tracks an exponentially-weighted mean and variance (smoothing
    :data:`EWMA_ALPHA`); a sample is anomalous when it exceeds ``mean +``
    :data:`EWMA_THRESHOLD` ``* spread`` after at least
    :data:`EWMA_MIN_SAMPLES` baseline observations, where spread is the
    EWMA standard deviation floored at 5% of the mean (so a perfectly
    flat baseline still tolerates jitter). Anomalous samples are *not*
    absorbed into the baseline — an attacker cannot drag the trend up.
    Pure float arithmetic, no RNG: deterministic across reruns.
    """

    __slots__ = ("mean", "var", "samples")

    def __init__(self):
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0

    @property
    def spread(self) -> float:
        return max(math.sqrt(self.var), 0.05 * abs(self.mean), 1e-9)

    def update(self, value: float) -> bool:
        """Feed one sample; returns True when it is anomalous."""
        if self.samples >= EWMA_MIN_SAMPLES:
            if value > self.mean + EWMA_THRESHOLD * self.spread:
                return True
        self.samples += 1
        if self.samples == 1:
            self.mean = float(value)
            self.var = 0.0
            return False
        delta = value - self.mean
        self.mean += EWMA_ALPHA * delta
        self.var = (1 - EWMA_ALPHA) * (self.var + EWMA_ALPHA * delta * delta)
        return False

    def __repr__(self) -> str:
        return (f"EwmaDetector(mean={self.mean:.3f}, "
                f"spread={self.spread:.3f}, samples={self.samples})")


class NullMetrics:
    """No-op registry: the default on every clock (observability off)."""

    enabled = False
    __slots__ = ()

    def describe(self, name: str, help: str = "",
                 buckets: tuple | None = None) -> None:
        return None

    def inc(self, name: str, value: float = 1, /, **labels) -> None:
        return None

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        return None

    def observe(self, name: str, value: float, /, **labels) -> None:
        return None

    def exemplar(self, name: str, trace_id: str, /, **labels) -> None:
        return None

    def histogram_handle(self, name: str, /, **labels) -> _NullHandle:
        return NULL_HANDLE

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: the shared disabled registry
NULL_METRICS = NullMetrics()


class MetricsRegistry(NullMetrics):
    """Live metrics store for one simulated machine."""

    enabled = True
    __slots__ = ("counters", "gauges", "histograms", "windowed",
                 "exemplars", "_help", "_buckets")

    def __init__(self):
        self.counters: dict[str, dict[str, float]] = {}
        self.gauges: dict[str, dict[str, float]] = {}
        #: name → key → {"buckets": [..], "sum": s, "count": n}
        self.histograms: dict[str, dict[str, dict]] = {}
        #: name → key → WindowedHistogram (last-samples windows).
        #: The owner of a windowed series (the fleet's SLO monitor) files
        #: its own histograms here; the snapshot reads those objects.
        self.windowed: dict[str, dict[str, WindowedHistogram]] = {}
        #: name → key → last-seen request trace ID (OpenMetrics-style)
        self.exemplars: dict[str, dict[str, str]] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple] = {}

    # -- registration ---------------------------------------------------- #

    def describe(self, name: str, help: str = "",
                 buckets: tuple | None = None) -> None:
        """Attach help text (Prometheus ``# HELP``) and histogram buckets."""
        if help:
            self._help[name] = help
        if buckets is not None:
            self._buckets[name] = tuple(sorted(buckets))

    # -- writes ---------------------------------------------------------- #

    def inc(self, name: str, value: float = 1, /, **labels) -> None:
        series = self.counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0) + value

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        self.gauges.setdefault(name, {})[label_key(labels)] = value

    def observe(self, name: str, value: float, /, **labels) -> None:
        self.histogram_handle(name, **labels).observe(value)

    def histogram_handle(self, name: str, /, **labels) -> HistogramHandle:
        """Resolve one histogram series to a reusable write handle.

        The handle stays valid for the life of the registry; callers
        cache it per label set (:class:`HandleCache`). Materializes the
        (empty) histogram eagerly so the handle can bind its bucket
        list; bounds come from :meth:`describe` as with :meth:`observe`.
        """
        series = self.histograms.setdefault(name, {})
        key = label_key(labels)
        hist = series.get(key)
        if hist is None:
            bounds = self._buckets.get(name, DEFAULT_BUCKETS)
            hist = series[key] = {"bounds": list(bounds),
                                  "buckets": [0] * len(bounds),
                                  "sum": 0, "count": 0}
        return HistogramHandle(hist)

    def exemplar(self, name: str, trace_id: str, /, **labels) -> None:
        """Attach a request trace ID to a series as its exemplar.

        Last-writer-wins, OpenMetrics style: the series answers *what
        happened*, the exemplar names one concrete request to pull the
        causal span tree for (``repro.obs.reqtrace`` resolves it). No-op
        for an empty ID so call sites need no guard.
        """
        if trace_id:
            self.exemplars.setdefault(name, {})[label_key(labels)] = trace_id

    # -- reads ----------------------------------------------------------- #

    def counter_value(self, name: str, /, **labels) -> float:
        return self.counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str, /, **match) -> float:
        """Sum a counter across all series matching the label subset."""
        return sum(v for key, v in self.counters.get(name, {}).items()
                   if labels_match(key, match))

    def snapshot(self) -> dict:
        """Deep-copied, JSON-able view of every series."""
        windowed = {
            name: {key: hist.quantiles() for key, hist in series.items()}
            for name, series in self.windowed.items() if series}
        return {
            "counters": {n: dict(s) for n, s in self.counters.items()},
            "gauges": {n: dict(s) for n, s in self.gauges.items()},
            "histograms": copy.deepcopy(self.histograms),
            "windowed": windowed,
            "exemplars": {n: dict(s) for n, s in self.exemplars.items()},
        }


def snapshot_counter_total(snapshot: dict, name: str, /, **match) -> float:
    """Sum a counter in a snapshot dict across matching label sets."""
    return sum(v for key, v in snapshot.get("counters", {})
               .get(name, {}).items() if labels_match(key, match))

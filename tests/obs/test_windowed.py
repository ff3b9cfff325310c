"""Windowed percentiles: determinism, eviction, the registry's view.

The SLO plane rests on :class:`~repro.obs.metrics.WindowedHistogram`
being exactly reproducible — nearest-rank percentiles over the last
:data:`~repro.obs.metrics.WINDOW_SAMPLES` samples of a series, integer
in, integer out.
"""

from repro.obs.metrics import (
    EWMA_ALPHA,
    EWMA_MIN_SAMPLES,
    EWMA_THRESHOLD,
    WINDOW_SAMPLES,
    EwmaDetector,
    MetricsRegistry,
    WindowedHistogram,
)


# --------------------------------------------------------------------------- #
# deterministic nearest-rank percentiles
# --------------------------------------------------------------------------- #

def test_percentiles_are_deterministic_nearest_rank():
    hist = WindowedHistogram()
    for v in range(1, 101):                  # 1..100
        hist.observe(v)
    assert hist.quantile(0.50) == 50
    assert hist.quantile(0.95) == 95
    assert hist.quantile(0.99) == 99
    assert hist.quantile(1.00) == 100
    assert hist.quantiles() == {"count": 100, "p50": 50, "p95": 95,
                                "p99": 99}
    # integers in, integers out — no interpolation drift between runs
    assert all(isinstance(hist.quantile(q), int)
               for q in (0.5, 0.95, 0.99))


def test_single_value_and_empty_edge_cases():
    hist = WindowedHistogram()
    assert hist.quantile(0.99) is None
    assert hist.quantiles() == {"count": 0, "p50": None, "p95": None,
                                "p99": None}
    hist.observe(42)
    assert hist.quantile(0.5) == hist.quantile(0.99) == 42


def test_identical_streams_produce_identical_summaries():
    def run():
        hist = WindowedHistogram()
        for i in range(200):                 # more than a window: evicts
            hist.observe((i * 7919) % 1000)
        return hist.quantiles()

    assert run() == run()


# --------------------------------------------------------------------------- #
# the window: the last WINDOW_SAMPLES samples
# --------------------------------------------------------------------------- #

def test_the_sample_past_a_full_window_evicts_the_oldest():
    assert WINDOW_SAMPLES == 128
    hist = WindowedHistogram()
    hist.observe(10**9)                      # the oldest: a cold start
    for _ in range(WINDOW_SAMPLES - 1):
        hist.observe(1)
    assert hist.count == WINDOW_SAMPLES
    assert hist.quantile(1.0) == 10**9       # still in the window
    hist.observe(1)                          # sample 129
    assert hist.count == WINDOW_SAMPLES
    assert hist.quantile(1.0) == 1           # the cold start aged out


def test_p99_over_a_full_window_is_not_the_max():
    hist = WindowedHistogram()
    for v in range(1, WINDOW_SAMPLES + 1):   # 1..128
        hist.observe(v)
    # nearest rank: ceil(0.99 * 128) = 127th of 128
    assert hist.quantiles() == {"count": 128, "p50": 64, "p95": 122,
                                "p99": 127}
    assert hist.quantile(0.99) < hist.quantile(1.0) == WINDOW_SAMPLES


# --------------------------------------------------------------------------- #
# registry integration
# --------------------------------------------------------------------------- #

def test_registry_windowed_series_snapshot():
    registry = MetricsRegistry()
    # a series' owner files its histograms; the snapshot reads them
    lat = registry.windowed["lat"] = {"tenant=a": WindowedHistogram(),
                                      "tenant=b": WindowedHistogram()}
    registry.windowed["empty"] = {}
    for v in [10, 20, 30, 40]:
        lat["tenant=a"].observe(v)
    lat["tenant=b"].observe(99)
    snap = registry.snapshot()
    assert list(snap["windowed"]) == ["lat"]    # no series, no section
    series = snap["windowed"]["lat"]
    assert series["tenant=a"] == {"count": 4, "p50": 20, "p95": 40,
                                  "p99": 40}
    assert series["tenant=b"]["p99"] == 99


def test_plain_snapshot_shape_untouched_by_windowed_series():
    registry = MetricsRegistry()
    snap = registry.snapshot()
    assert snap["windowed"] == {}
    assert set(snap) == {"counters", "gauges", "histograms", "windowed",
                         "exemplars"}


# --------------------------------------------------------------------------- #
# the EWMA detector underneath the anomaly plane
# --------------------------------------------------------------------------- #

def test_ewma_flags_spikes_only_after_baseline():
    assert (EWMA_ALPHA, EWMA_THRESHOLD, EWMA_MIN_SAMPLES) == (0.3, 3.0, 4)
    det = EwmaDetector()
    assert not any(det.update(100) for _ in range(4))   # learning
    assert not det.update(101)                          # jitter tolerated
    assert det.update(1000)                             # 10x spike flags
    # the anomalous sample was not absorbed into the baseline
    assert det.mean < 110
    assert det.update(1000)                             # still anomalous


def test_ewma_is_deterministic():
    def run():
        det = EwmaDetector()
        flags = [det.update(v) for v in
                 [50, 52, 48, 51, 50, 49, 500, 51, 50]]
        return flags, det.mean, det.var

    assert run() == run()
    flags, _, _ = run()
    assert flags[6] is True and sum(flags) == 1

"""Windowed percentiles: determinism, rotation, the registry's view.

The SLO plane rests on :class:`~repro.obs.metrics.WindowedHistogram`
being exactly reproducible — nearest-rank percentiles over cycle-aligned
frames of the one fixed geometry (``WINDOWS`` frames of
``WINDOW_CYCLES`` cycles), integer in, integer out.
"""

from repro.obs.metrics import (
    EWMA_ALPHA,
    EWMA_MIN_SAMPLES,
    EWMA_THRESHOLD,
    WINDOW_CYCLES,
    WINDOWS,
    EwmaDetector,
    MetricsRegistry,
    WindowedHistogram,
)

#: one frame
W = WINDOW_CYCLES


# --------------------------------------------------------------------------- #
# deterministic nearest-rank percentiles
# --------------------------------------------------------------------------- #

def test_percentiles_are_deterministic_nearest_rank():
    hist = WindowedHistogram()
    for i, v in enumerate(range(1, 101)):    # 1..100, one per cycle
        hist.observe(v, i)
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
    hist.observe(42, 0)
    assert hist.quantile(0.5) == hist.quantile(0.99) == 42


def test_identical_streams_produce_identical_summaries():
    def run():
        hist = WindowedHistogram()
        for i in range(200):                 # ~6 frames: some rotate out
            hist.observe((i * 7919) % 1000, i * 13 * W // 500)
        return hist.quantiles()

    assert run() == run()


# --------------------------------------------------------------------------- #
# rotation at exact cycle boundaries
# --------------------------------------------------------------------------- #

def test_frames_rotate_at_exact_cycle_boundaries():
    assert (WINDOW_CYCLES, WINDOWS) == (2_000_000, 4)
    hist = WindowedHistogram()
    hist.observe(1, 0)
    hist.observe(2, W - 1)      # same frame: [0, W)
    assert hist.values() == [1, 2]
    hist.observe(3, W)          # first cycle of frame 1 — a new frame,
    assert hist.values() == [1, 2, 3]     # but frame 0 is still retained
    hist.observe(4, 3 * W)      # frame 3: the last frame that keeps 0
    assert hist.values() == [1, 2, 3, 4]
    hist.observe(5, 4 * W)      # frame 4: frame 0 slides out exactly now
    assert hist.values() == [3, 4, 5]
    assert hist.count == 3


def test_values_view_filters_by_the_asking_cycle():
    hist = WindowedHistogram()
    hist.observe(10, W // 2)              # frame 0
    hist.observe(20, 3 * W + W // 2)      # frame 3
    assert hist.values(cycle=4 * W - 1) == [10, 20]
    # asked "as of" frame 4, frame 0 is out of window even though the
    # store hasn't rotated yet (no observation landed in frame 4)
    assert hist.values(cycle=4 * W) == [20]
    assert hist.quantile(0.5, cycle=4 * W) == 20


# --------------------------------------------------------------------------- #
# registry integration
# --------------------------------------------------------------------------- #

def test_registry_windowed_series_snapshot():
    registry = MetricsRegistry()
    # a series' owner files its histograms; the snapshot reads them
    lat = registry.windowed["lat"] = {"tenant=a": WindowedHistogram(),
                                      "tenant=b": WindowedHistogram()}
    registry.windowed["empty"] = {}
    for i, v in enumerate([10, 20, 30, 40]):
        lat["tenant=a"].observe(v, i * 10)
    lat["tenant=b"].observe(99, 5)
    snap = registry.snapshot()
    assert list(snap["windowed"]) == ["lat"]    # no series, no section
    series = snap["windowed"]["lat"]
    assert series["tenant=a"]["count"] == 4
    assert series["tenant=a"]["p50"] == 20
    assert series["tenant=b"]["p99"] == 99
    # each series is self-describing: its window geometry rides along
    assert series["tenant=a"]["window_cycles"] == 2_000_000
    assert series["tenant=a"]["windows"] == 4


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

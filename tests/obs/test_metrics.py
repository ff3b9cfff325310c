"""Metrics registry: labelled series, snapshots, Prometheus exposition."""

import json

import pytest

from repro.hw.cycles import CycleClock
from repro.obs.export import prometheus_text
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    label_key,
    parse_label_key,
    snapshot_counter_total,
)


def test_label_key_roundtrip_and_sorting():
    assert label_key({"b": 2, "a": "x"}) == "a=x,b=2"
    assert parse_label_key("a=x,b=2") == {"a": "x", "b": "2"}
    assert label_key({}) == "" and parse_label_key("") == {}


def test_counters_with_labels():
    reg = MetricsRegistry()
    reg.inc("emc_total", cls="mmu", sandbox="1")
    reg.inc("emc_total", 4, cls="mmu", sandbox="1")
    reg.inc("emc_total", cls="cr", sandbox="1")
    reg.inc("emc_total", cls="mmu", sandbox="2")
    assert reg.counter_value("emc_total", cls="mmu", sandbox="1") == 5
    assert reg.counter_total("emc_total", sandbox="1") == 6
    assert reg.counter_total("emc_total", cls="mmu") == 6
    assert reg.counter_total("emc_total") == 7


def test_name_is_usable_as_a_label():
    """Leading params are positional-only, so 'name'/'value' label keys work."""
    reg = MetricsRegistry()
    reg.inc("syscalls_total", name="read")
    reg.observe("latency", 10, name="read")
    assert reg.counter_value("syscalls_total", name="read") == 1


def test_histogram_buckets_and_sum():
    reg = MetricsRegistry()
    reg.describe("lat", "latency", buckets=(10, 100))
    for v in (5, 50, 5000):
        reg.observe("lat", v)
    hist = reg.histograms["lat"][""]
    assert hist["bounds"] == [10, 100]
    assert hist["buckets"] == [1, 1]       # 5000 lands in +Inf only
    assert hist["count"] == 3 and hist["sum"] == 5055


def test_snapshot_is_detached_and_delta_subtracts():
    reg = MetricsRegistry()
    reg.inc("c", 3, k="a")
    reg.set_gauge("g", 7)
    reg.observe("h", 20)
    snap = reg.snapshot()
    reg.inc("c", 2, k="a")
    reg.inc("c", 1, k="b")
    reg.set_gauge("g", 9)
    reg.observe("h", 30)
    # unchanged by later updates
    assert snap["counters"]["c"] == {"k=a": 3}
    assert snap["gauges"]["g"] == {"": 7}
    assert snap["histograms"]["h"][""]["count"] == 1
    assert snapshot_counter_total(reg.snapshot(), "c") == 6
    # snapshots are plain JSON
    json.dumps(reg.snapshot())


def test_null_metrics_is_inert():
    before = NULL_METRICS.snapshot()
    NULL_METRICS.inc("x", cls="y")
    NULL_METRICS.observe("h", 1)
    NULL_METRICS.set_gauge("g", 2)
    assert NULL_METRICS.snapshot() == before
    assert before == {"counters": {}, "gauges": {}, "histograms": {}}


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.describe("emc_total", "EMCs by class")
    reg.inc("emc_total", 5, cls="mmu", sandbox="1")
    reg.set_gauge("confined_bytes", 4096, sandbox="1")
    reg.describe("lat", buckets=(10, 100))
    reg.observe("lat", 50)
    text = prometheus_text(CycleClock(metrics=reg))
    assert "# HELP emc_total EMCs by class" in text
    assert "# TYPE emc_total counter" in text
    assert 'emc_total{cls="mmu",sandbox="1"} 5' in text
    assert 'confined_bytes{sandbox="1"} 4096' in text
    # cumulative histogram: le=100 includes the le=10 bucket's count
    assert 'lat_bucket{le="10"} 0' in text
    assert 'lat_bucket{le="100"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_sum 50" in text and "lat_count 1" in text


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.inc("c", what='say "hi"')
    text = prometheus_text(CycleClock(metrics=reg))
    assert 'what="say \\"hi\\""' in text


# --------------------------------------------------------------------- #
# write handles (the hot-path fast lane)
# --------------------------------------------------------------------- #

def test_histogram_handle_matches_observe_exactly():
    via_observe, via_handle = MetricsRegistry(), MetricsRegistry()
    handle = via_handle.histogram_handle("erebor_emc_cycles", cls="mmu")
    for value in (0, 17, 999, 10**7, 5 * 10**9):
        via_observe.observe("erebor_emc_cycles", value, cls="mmu")
        handle.observe(value)
    assert (via_handle.snapshot()["histograms"]
            == via_observe.snapshot()["histograms"])


def test_handle_cache_invalidates_when_registry_changes():
    from repro.obs.metrics import HandleCache
    cache = HandleCache()
    first = MetricsRegistry()
    assert cache.get(first, "k") is None
    handle = cache.put("k", first.histogram_handle("h_cycles"))
    assert cache.get(first, "k") is handle
    # a new registry identity (fresh install) must drop stale handles:
    # writing through them would update series nobody exports anymore
    second = MetricsRegistry()
    assert cache.get(second, "k") is None
    fresh = cache.put("k", second.histogram_handle("h_cycles"))
    fresh.observe(42)
    assert second.snapshot()["histograms"]["h_cycles"][""]["count"] == 1
    assert first.snapshot()["histograms"]["h_cycles"][""]["count"] == 0


def test_null_metrics_handles_are_inert():
    handle = NULL_METRICS.histogram_handle("h", cls="x")
    handle.observe(42)
    handle.observe_n(42, 10)
    assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}

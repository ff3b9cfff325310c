"""Ledger-backed counters: a counter the clock already counts is a view.

Every series in ``LEDGER_COUNTERS`` is rendered from the clock's event
ledger, so its Prometheus samples and its label breakdown both sum to the
ledger's count of the event, on a single-core observed run and on the
2-core ``SMP_PARAMS`` fleet.
"""

import re

import pytest

from repro.fleet import run_fleet
from repro.fleet.goldens import SMP_PARAMS
from repro.obs.export import prometheus_text
from repro.obs.metrics import (
    LEDGER_COUNTERS,
    metrics_snapshot,
    parse_label_key,
)

_SAMPLE = re.compile(r"^(\w+)(?:\{[^}]*\})? (\S+)$")


@pytest.fixture(scope="module")
def smp_fleet_clock():
    _report, system = run_fleet(n_cpus=2, **SMP_PARAMS)
    return system.machine.clock


@pytest.fixture(params=["observed", "smp_fleet_clock"])
def clock(request):
    """helloworld/erebor under ``run_observed``, and the 2-core fleet."""
    value = request.getfixturevalue(request.param)
    return value.clock if request.param == "observed" else value


def _rendered_totals(text: str) -> dict:
    totals: dict = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            name, value = match.groups()
            totals[name] = totals.get(name, 0) + float(value)
    return totals


@pytest.mark.parametrize("name", sorted(LEDGER_COUNTERS))
def test_ledger_series_sum_to_clock_events(clock, name):
    event, label_names = LEDGER_COUNTERS[name]
    expected = clock.events[event]
    rendered = _rendered_totals(prometheus_text(clock)).get(name, 0)
    breakdown = metrics_snapshot(clock)["counters"].get(name, {})
    assert rendered == expected
    assert sum(breakdown.values()) == expected
    for key in breakdown:
        assert set(parse_label_key(key)) == set(label_names)
    if event in ("emc", "page_fault", "syscall", "ve", "sandbox_exit"):
        assert expected > 0


def test_kernel_ve_total_carries_the_network_path(observed, smp_fleet_clock):
    """Pin: ``kernel_ve_total`` counts ``kernel/net.py``'s #VEs under
    ``reason="io"`` (they were once counted on the clock only)."""
    def ve_series(clock):
        return metrics_snapshot(clock)["counters"]["kernel_ve_total"]

    assert ve_series(observed.clock) == {"reason=io": 4,
                                         "reason=wrmsr": 194}
    assert ve_series(smp_fleet_clock) == {"reason=io": 24,
                                          "reason=wrmsr": 198}

"""Ledger-backed counters: a counter the clock already counts is a view.

Every series in ``LEDGER_COUNTERS`` is rendered from the clock's event
ledger, so its Prometheus samples and its label breakdown both sum to the
ledger's count of its events, on a single-core observed run and on the
2-core ``SMP_PARAMS`` fleet. ``erebor_pkrs_toggles_total`` is derived
from the same ledger: two PKRS writes per EMC and per interrupt-gate exit.
"""

import re

import pytest

from repro.fleet import run_fleet
from repro.fleet.goldens import SMP_PARAMS
from repro.obs.export import prometheus_text
from repro.obs.harness import run_observed
from repro.obs.metrics import (
    LEDGER_COUNTERS,
    PKRS_GATE_EXITS,
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
    event_names, label_names = LEDGER_COUNTERS[name]
    events = clock.events
    expected = sum(events[event] for event in event_names)
    rendered = _rendered_totals(prometheus_text(clock)).get(name, 0)
    breakdown = metrics_snapshot(clock)["counters"].get(name, {})
    assert rendered == expected
    assert sum(breakdown.values()) == expected
    for key in breakdown:
        assert set(parse_label_key(key)) == set(label_names)
    if set(event_names) & {"emc", "page_fault", "syscall", "ve",
                           "sandbox_exit"}:
        assert expected > 0


def test_exits_view_counts_kernel_exits_apart(observed):
    """``erebor_exits_total`` reads both exit events; only the
    kernel-owned ones are ``kernel_exit`` and carry ``sandbox=kernel``."""
    clock = observed.clock
    events = clock.events
    series = metrics_snapshot(clock)["counters"]["erebor_exits_total"]
    kernel = sum(n for key, n in series.items()
                 if parse_label_key(key)["sandbox"] == "kernel")
    assert kernel == events["kernel_exit"] > 0
    assert sum(series.values()) - kernel == events["sandbox_exit"]


#: ``erebor_exits_total`` and ``erebor_pkrs_toggles_total`` as the
#: registry counted them before they became ledger views
_EXIT_PKRS_PINS = {
    "observed": (
        {"cls=irq,sandbox=1": 97, "cls=irq,sandbox=kernel": 97,
         "cls=pagefault,sandbox=1": 320, "cls=pagefault,sandbox=kernel": 1,
         "cls=syscall,sandbox=1": 3, "cls=ve,sandbox=1": 98,
         "cls=ve,sandbox=kernel": 98},
        3568),
    "smp_fleet_clock": (
        {"cls=irq,sandbox=1": 193, "cls=irq,sandbox=2": 3,
         "cls=irq,sandbox=3": 2, "cls=pagefault,sandbox=1": 320,
         "cls=syscall,sandbox=1": 1, "cls=syscall,sandbox=2": 9,
         "cls=syscall,sandbox=3": 9, "cls=ve,sandbox=1": 197,
         "cls=ve,sandbox=2": 7, "cls=ve,sandbox=3": 6},
        3450),
}


@pytest.mark.parametrize("source", sorted(_EXIT_PKRS_PINS))
def test_exit_and_pkrs_series_pinned(request, source):
    value = request.getfixturevalue(source)
    clock = value.clock if source == "observed" else value
    counters = metrics_snapshot(clock)["counters"]
    exits, pkrs = _EXIT_PKRS_PINS[source]
    assert counters["erebor_exits_total"] == exits
    assert counters["erebor_pkrs_toggles_total"] == {"": pkrs}


#: helloworld setting → ``erebor_pkrs_toggles_total`` (None: no series)
_PKRS_BY_SETTING = {"erebor": 3568, "mmu": 2536, "exit": 1632,
                    "native": None}


@pytest.mark.parametrize("setting", sorted(_PKRS_BY_SETTING))
def test_pkrs_writes_are_two_per_gate_pass(setting):
    """PKRS = 2 × (EMCs + page-fault and interrupt exits) in every
    setting: ``mmu`` has EMCs but no exits, ``native`` neither."""
    run = run_observed("helloworld", setting, trace=False)
    counters = metrics_snapshot(run.clock)["counters"]
    exits = counters.get("erebor_exits_total", {})
    gate_exits = sum(n for key, n in exits.items()
                     if parse_label_key(key)["cls"] in PKRS_GATE_EXITS)
    emcs = sum(counters.get("erebor_emc_total", {}).values())
    pkrs = counters.get("erebor_pkrs_toggles_total")
    expected = _PKRS_BY_SETTING[setting]
    if expected is None:
        assert pkrs is None and not exits and not emcs
        return
    assert pkrs == {"": expected} == {"": 2 * (emcs + gate_exits)}
    assert emcs > 0
    assert (gate_exits > 0) == (setting != "mmu")


def test_kernel_ve_total_carries_the_network_path(observed, smp_fleet_clock):
    """Pin: ``kernel_ve_total`` counts ``kernel/net.py``'s #VEs under
    ``reason="io"`` (they were once counted on the clock only)."""
    def ve_series(clock):
        return metrics_snapshot(clock)["counters"]["kernel_ve_total"]

    assert ve_series(observed.clock) == {"reason=io": 4,
                                         "reason=wrmsr": 194}
    assert ve_series(smp_fleet_clock) == {"reason=io": 24,
                                          "reason=wrmsr": 198}

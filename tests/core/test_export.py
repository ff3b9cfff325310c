"""Tests for the JSON experiment export."""

import json

import pytest

from repro.bench.export import (
    collect_fig10,
    collect_table3,
    collect_table4,
    export_json,
    fig9_table6,
)
from repro.bench.runner import WorkloadRunner


def test_table3_export_matches_paper():
    data = collect_table3()
    assert data == {"emc_measured": 1224, "syscall": 684,
                    "tdcall": 5276, "vmcall": 4031}


def test_table4_export_complete():
    data = collect_table4()
    assert set(data) == {"MMU", "CR", "SMAP", "IDT", "MSR", "GHCI"}
    assert data["MMU"] == {"native": 23, "erebor": 1345}


def test_fig10_export_shape():
    data = collect_fig10(requests=4)
    for kind in ("ssh", "nginx"):
        assert len(data[kind]["relative_throughput"]) == 8
        assert 0 < data[kind]["average_reduction"] < 0.2


def test_table6_rates_read_the_clock_ledger():
    """Every Table 6 rate is the clock's event count over the window.

    The helloworld erebor run takes two #VEs, one of them on the network
    path, which no metrics series counts: a registry-fed column drifts.
    """
    runs = WorkloadRunner(scale=1.0).run_all_settings("helloworld")
    row = fig9_table6({"helloworld": runs})["workloads"]["helloworld"]["table6"]
    erebor = runs["erebor"]
    assert erebor.events["ve"] == 2
    assert row["ve_per_sec"] == erebor.events["ve"] / erebor.run_seconds
    for column, event in (("pf_per_sec", "page_fault"),
                          ("timer_per_sec", "timer_interrupt"),
                          ("emc_per_sec", "emc"),
                          ("sandbox_exit_per_sec", "sandbox_exit")):
        assert row[column] == erebor.rate(event), column


def test_export_json_roundtrip(tmp_path):
    # a reduced export: patch the heavy collectors for speed
    import repro.bench.export as mod
    path = tmp_path / "results.json"
    orig8, orig9, orig10 = (mod.collect_fig8, mod.collect_fig9_table6,
                            mod.collect_fig10)
    mod.collect_fig8 = lambda it=0: {"stub": True}
    mod.collect_fig9_table6 = lambda s=0, d=0: {"stub": True}
    mod.collect_fig10 = lambda r=0: {"stub": True}
    try:
        results = mod.export_json(path, scale=0.1)
    finally:
        mod.collect_fig8, mod.collect_fig9_table6, mod.collect_fig10 = (
            orig8, orig9, orig10)
    loaded = json.loads(path.read_text())
    assert loaded["table3"]["emc_measured"] == 1224
    assert loaded["meta"]["paper"].startswith("Erebor")
    assert loaded == results

"""Host-time attribution profiler: patching, accounting, honesty rules.

The profiler is the tree's one sanctioned wall-clock reader (lint rule
D1's ``_D1_EXEMPT``); these tests pin the other half of the bargain —
it must never move a simulated cycle — plus its accounting invariants:
self-time conservation, explicit-window coverage, calibrated probe cost,
and clean attach/detach (the interpreter is unpatched afterwards).
"""

import sys
import time
from pathlib import Path

import pytest

from repro.hw.cycles import CycleClock
from repro.obs.hostprof import SUBSYSTEMS, HostProfiler, profile_fleet
from repro.obs.schema import check_hostprof_report


def spin(seconds=0.002):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


# --------------------------------------------------------------------------- #
# patching
# --------------------------------------------------------------------------- #

def test_attach_detach_restores_every_entry_point():
    import repro.hw.cpu as cpu_mod
    import repro.fleet.template as template_mod
    originals = (cpu_mod.Cpu.__dict__["step"],
                 template_mod.SandboxTemplate.__dict__["capture"])
    profiler = HostProfiler()
    profiler.attach()
    assert cpu_mod.Cpu.__dict__["step"] is not originals[0]
    # classmethod stays a classmethod while wrapped
    assert isinstance(template_mod.SandboxTemplate.__dict__["capture"],
                      classmethod)
    profiler.detach()
    assert cpu_mod.Cpu.__dict__["step"] is originals[0]
    assert template_mod.SandboxTemplate.__dict__["capture"] is originals[1]


def test_double_attach_is_refused():
    profiler = HostProfiler()
    profiler.attach()
    try:
        with pytest.raises(RuntimeError):
            profiler.attach()
    finally:
        profiler.detach()


def test_wrapper_is_passthrough_when_window_closed():
    profiler = HostProfiler(subsystems=())
    calls = []
    wrapped = profiler.wrap("x", lambda v: calls.append(v) or v * 2)
    assert wrapped(3) == 6          # window never opened
    assert calls == [3]
    assert profiler.totals == {}    # nothing attributed


# --------------------------------------------------------------------------- #
# accounting invariants
# --------------------------------------------------------------------------- #

def test_self_time_excludes_profiled_children():
    profiler = HostProfiler(subsystems=())
    profiler.start()
    with profiler.scope("parent"):
        spin(0.002)
        with profiler.scope("child"):
            spin(0.008)
    profiler.stop()
    assert profiler.calls == {"parent": 1, "child": 1}
    # the child's seconds are not double counted into the parent
    assert profiler.totals["child"] > profiler.totals["parent"]
    total = profiler.attributed_s()
    assert total <= profiler.window_s
    # conservation: attributed == sum over the folded flamegraph too
    assert total == pytest.approx(sum(profiler.folded.values()))
    assert set(profiler.folded) == {("parent",), ("parent", "child")}


def test_coverage_is_a_real_claim_not_always_100():
    profiler = HostProfiler(subsystems=())
    profiler.start()
    with profiler.scope("covered"):
        spin(0.002)
    spin(0.004)                     # un-scoped work inside the window
    profiler.stop()
    assert 0.0 < profiler.coverage() < 0.9


def test_profiler_never_touches_the_simulated_clock():
    clock = CycleClock()
    before = clock.cycles
    profiler = HostProfiler(subsystems=())
    profiler.start()
    with profiler.scope("work"):
        spin(0.001)
    profiler.stop()
    profiler.calibrate(iterations=1_000)
    profiler.report()
    assert clock.cycles == before
    assert clock.wall_cycles == before


def test_calibration_reports_probe_cost_and_cleans_up_after_itself():
    profiler = HostProfiler(subsystems=())
    overhead = profiler.calibrate(iterations=5_000)
    assert overhead >= 0.0
    assert "hostprof:calibration" not in profiler.totals
    assert "hostprof:calibration" not in profiler.calls


# --------------------------------------------------------------------------- #
# report + flamegraph surfaces
# --------------------------------------------------------------------------- #

def _profiled_run():
    profiler = HostProfiler(subsystems=())
    profiler.start()
    with profiler.scope("alpha"):
        spin(0.004)
        with profiler.scope("beta"):
            spin(0.002)
    profiler.stop()
    return profiler


def test_report_is_schema_valid_and_ranked():
    report = _profiled_run().report()
    check_hostprof_report(report)
    names = [row["name"] for row in report["subsystems"]]
    assert set(names) == {"alpha", "beta"}
    shares = [row["share"] for row in report["subsystems"]]
    assert shares == sorted(shares, reverse=True)
    assert sum(shares) <= report["coverage"] + 1e-6


def test_render_table_and_collapsed_stacks():
    profiler = _profiled_run()
    table = profiler.render_table()
    assert "host-time attribution" in table
    assert "alpha" in table and "(unattributed)" in table
    lines = profiler.collapsed().splitlines()
    assert any(line.startswith("alpha ") for line in lines)
    assert any(line.startswith("alpha;beta ") for line in lines)
    for line in lines:
        path, us = line.rsplit(" ", 1)
        assert int(us) > 0


def test_report_json_roundtrip(tmp_path):
    import json
    path = tmp_path / "hostprof.json"
    payload = _profiled_run().report()
    path.write_text(json.dumps(payload, indent=2))
    assert json.loads(path.read_text()) == payload


# --------------------------------------------------------------------------- #
# end to end over the real simulator
# --------------------------------------------------------------------------- #

def test_profile_fleet_attributes_most_of_a_real_run():
    from repro.obs.harness import run_observed

    run, profiler = profile_fleet(
        lambda: run_observed("helloworld", "erebor", scale=1.0))
    report = profiler.report()
    check_hostprof_report(report)
    # the patch table covers the simulator's hot paths: most of the
    # window must be attributed (the fleet-scale ≥90% bar is asserted on
    # the armed llama fleet by tests/fleet/test_feature_ab.py)
    assert report["coverage"] >= 0.5
    assert any(row["name"] == "obs:tracer-emit"
               for row in report["subsystems"])
    # detached afterwards: a second profile attaches cleanly
    HostProfiler().attach().detach()
    # and the observed run itself is intact
    assert run.result is not None


def _perfbench_table(monkeypatch):
    """``perfbench/layers.py``'s wrapper table, imported as the benchmark
    runs it: with ``perfbench/`` on the path (both modules leave
    ``sys.modules`` again after the test)."""
    import importlib
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2]
                                    / "perfbench"))
    for name in ("layers", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("layers").TABLE


def test_subsystem_table_targets_exist(monkeypatch):
    """Every entry point the host profiler and the benchmark's per-layer
    table wrap by name still exists, so a rename or deletion fails here."""
    import importlib
    table = _perfbench_table(monkeypatch)
    assert table
    for _label, module_name, qualname in SUBSYSTEMS + table:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, qualname)

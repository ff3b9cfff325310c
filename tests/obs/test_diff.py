"""Differential run comparator and its simulated-divergence gate.

The contracts under test (DESIGN §8):

* two same-seed bundles diff to ``divergent: false`` with every
  simulated section empty (the perf-gate CI invariant);
* a synthetic divergence produces the **pinned golden report** —
  deterministic ordering (|delta| desc then name), plane → span →
  tenant localization, and the first divergent audit seq;
* digest-map mode compares ``{name: digest}`` maps (trace trees);
* ``--gate`` fails any simulated divergence and passes a clean diff.
"""

import json

from repro.obs.diff import (
    diff_any,
    diff_bundles,
    diff_digest_maps,
    dumps_report,
    first_divergent_audit_seq,
    gate_report,
    render_report,
)
from repro.obs.schema import check_diff_report


def _bundle(*, cycles=1000, planes=None, collapsed=None, tenants=None,
            audit_head="aa" * 32, audits=None):
    """A minimal synthetic obs bundle."""
    events = [{"name": f"audit:{kind}", "cat": "audit", "kind": "AUDIT",
               "begin": i * 10, "end": i * 10, "depth": 0, "path": [],
               "args": {"detail": detail}, "cpu": None}
              for i, (kind, detail) in enumerate(audits or [])]
    counters = {"erebor_requests_total": {
        f"tenant={t}": v for t, v in (tenants or {}).items()}}
    return {
        "meta": {"workload": "synthetic", "setting": "erebor",
                 "cycles": cycles, "seconds": cycles / 3.0e9,
                 "wall_cycles": cycles, "per_cpu_cycles": [cycles],
                 "per_cpu_busy": [0], "dropped": 0,
                 "audit_head": audit_head, "cfg_report_digest": ""},
        "trace": {"dropped": 0, "events": events},
        "metrics": {"counters": counters, "gauges": {}, "histograms": {},
                    "windowed": {}, "exemplars": {}},
        "profile": {"total_cycles": cycles,
                    "collapsed": collapsed or [f"run;work {cycles}"]},
        "ledger": {"version": 1, "cycles": cycles, "wall_cycles": cycles,
                   "wall_seconds": cycles / 3.0e9,
                   "per_cpu_cycles": [cycles], "per_cpu_busy": [0],
                   "lanes": {"serial": {
                       "busy": cycles,
                       "planes": dict(planes or {"exec.interpret": cycles}),
                       "tags": {"instr": cycles}}},
                   "planes": dict(planes or {"exec.interpret": cycles}),
                   "obs_cycles": 0,
                   "conservation": {"ok": True, "checked_lanes": 1,
                                    "violations": []}},
    }


# --------------------------------------------------------------------------- #
# identical inputs compare clean
# --------------------------------------------------------------------------- #

def test_identical_bundles_diff_clean():
    a, b = _bundle(), _bundle()
    report = diff_bundles(a, b)
    check_diff_report(report)
    assert report["divergent"] is False
    for section in ("simulated_deltas", "plane_deltas", "span_deltas",
                    "tenant_deltas", "digest_mismatches"):
        assert report[section] == []
    assert report["first_divergent_audit_seq"] is None


def test_diff_is_deterministic_bytes():
    a = _bundle(cycles=500)
    b = _bundle(cycles=900)
    first = dumps_report(diff_bundles(a, b))
    second = dumps_report(diff_bundles(a, b))
    assert first == second


# --------------------------------------------------------------------------- #
# the golden synthetic divergence
# --------------------------------------------------------------------------- #

GOLDEN = {
    "divergent": True,
    "simulated_deltas": [
        {"name": "cycles", "a": 1000, "b": 1800, "delta": 800},
        {"name": "wall_cycles", "a": 1000, "b": 1800, "delta": 800},
        {"name": "lane:serial", "a": 1000, "b": 1800, "delta": 800},
    ],
    "plane_deltas": [
        {"name": "fault", "a": 0, "b": 500, "delta": 500},
        {"name": "exec.interpret", "a": 1000, "b": 1300, "delta": 300},
    ],
    "span_deltas": [
        {"name": "run;fault", "a": 0, "b": 500, "delta": 500},
        {"name": "run;work", "a": 1000, "b": 1300, "delta": 300},
    ],
    "tenant_deltas": [
        {"name": "erebor_requests_total{tenant=1}", "a": 4, "b": 6,
         "delta": 2},
    ],
    "first_divergent_audit_seq": 1,
}


def test_golden_synthetic_divergence_report():
    a = _bundle(cycles=1000, planes={"exec.interpret": 1000},
                collapsed=["run;work 1000"], tenants={"0": 4, "1": 4},
                audit_head="aa" * 32,
                audits=[("boot", "x"), ("admit", "t0")])
    b = _bundle(cycles=1800,
                planes={"exec.interpret": 1300, "fault": 500},
                collapsed=["run;work 1300", "run;fault 500"],
                tenants={"0": 4, "1": 6}, audit_head="bb" * 32,
                audits=[("boot", "x"), ("admit", "t1")])
    # keep the synthetic ledgers conserved
    for bundle, planes in ((a, {"instr": 1000}),
                           (b, {"instr": 1300, "pagefault": 500})):
        bundle["ledger"]["lanes"]["serial"]["tags"] = planes
    report = diff_bundles(a, b)
    check_diff_report(report)
    for key, want in GOLDEN.items():
        assert report[key] == want, key
    assert report["digest_mismatches"] == [
        {"name": "audit_head", "a": "aa" * 32, "b": "bb" * 32}]
    # the rendered summary names the verdict and the hottest delta
    text = render_report(report)
    assert "DIVERGENT" in text
    assert "first divergent audit seq: 1" in text


def test_first_divergent_audit_seq_on_length_mismatch():
    a = _bundle(audits=[("boot", "x"), ("admit", "t0")])
    b = _bundle(audits=[("boot", "x")])
    assert first_divergent_audit_seq(a["trace"], b["trace"]) == 1


def test_gate_report_fails_on_simulated_divergence():
    a, b = _bundle(cycles=1000), _bundle(cycles=1001)
    verdict = gate_report(diff_bundles(a, b))
    assert not verdict["ok"]
    assert any("cycles" in f for f in verdict["failures"])
    clean = gate_report(diff_bundles(_bundle(), _bundle()))
    assert clean["ok"] and clean["failures"] == []


# --------------------------------------------------------------------------- #
# digest-map mode
# --------------------------------------------------------------------------- #

def test_digest_map_mode_detects_mismatch_and_dispatches():
    a = {"client-0": "a" * 64, "client-1": "b" * 64}
    b = {"client-0": "a" * 64, "client-1": "c" * 64, "client-2": "d" * 64}
    report = diff_any(a, b)
    check_diff_report(report)
    assert report["mode"] == "digest-map"
    assert report["divergent"] is True
    assert [m["name"] for m in report["digest_mismatches"]] == [
        "client-1", "client-2"]
    same = diff_digest_maps(a, dict(a))
    assert same["divergent"] is False


def test_diff_any_dispatches_bundles():
    assert diff_any(_bundle(), _bundle())["mode"] == "bundle"


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

def test_cli_diff_and_gate(tmp_path, capsys):
    from repro.obs.__main__ import main
    a, b = _bundle(cycles=10), _bundle(cycles=20)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    out = tmp_path / "report.json"
    rc = main(["diff", str(pa), str(pb), "--gate", "-o", str(out)])
    assert rc == 1                      # simulated divergence fails
    report = json.loads(out.read_text())
    check_diff_report(report)
    assert report["divergent"] is True
    pb.write_text(json.dumps(a))        # now identical
    assert main(["diff", str(pa), str(pb), "--gate"]) == 0
    capsys.readouterr()

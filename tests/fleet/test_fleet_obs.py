"""Fleet observability: every orchestration event is visible in obs.

Pins the ``erebor_fleet_*`` metric surface, the fleet span/event names in
the trace, and the schema-validity of the ``python -m repro.fleet``
bundle export (the CI ``fleet-smoke`` contract, without a subprocess).
"""

import json

import pytest

from repro.fleet import run_fleet
from repro.fleet.__main__ import main as fleet_main
from repro.obs import install
from repro.obs.harness import ObservedRun, export_bundle
from repro.obs.metrics import WINDOW_SAMPLES, metrics_snapshot
from repro.obs.schema import check_export, validate_export


@pytest.fixture(scope="module")
def observed_fleet():
    """One traced helloworld fleet: 3 clients over 1 slot (forces reuse)."""
    def instrument(machine):
        tracer, _registry = install(machine.clock)
        tracer.span("run:fleet", cat="run", workload="helloworld").__enter__()

    report, system = run_fleet(workload="helloworld", clients=3, requests=2,
                               pool_size=1, tenants=3, seed=11, scale=1.0,
                               instrument=instrument)
    clock = system.machine.clock
    clock.tracer.finish()
    return report, clock.tracer, clock.metrics, clock


def test_fleet_metrics_surface(observed_fleet):
    report, _tracer, _registry, clock = observed_fleet
    c = metrics_snapshot(clock)["counters"]
    assert c["erebor_templates_sealed_total"] == {
        "template=helloworld-template": 1}
    assert c["erebor_fleet_forks_total"] == {
        "template=helloworld-template": 1}
    assert sum(c["erebor_fleet_admissions_total"].values()) == 3
    assert sum(c["erebor_fleet_requests_total"].values()) == 6
    assert (sum(c["erebor_fleet_sessions_total"].values())
            == len(report.sessions) == 3)
    # the reused slot: 3 resets, each one counted and scrub-verified
    assert sum(c["erebor_sandbox_reuse_total"].values()) == 3
    assert sum(c["erebor_fleet_scrub_verified_total"].values()) == 3


def test_fleet_histograms_and_gauges(observed_fleet):
    _report, _tracer, registry, _clock = observed_fleet
    snap = registry.snapshot()
    start = snap["histograms"]["erebor_fleet_start_cycles"]
    kinds = {k for k in start}
    assert kinds == {"kind=cold", "kind=fork", "kind=warm"}
    assert "erebor_fleet_session_cycles" in snap["histograms"]
    assert snap["gauges"]["erebor_fleet_pool_size"] == {"": 1}
    assert snap["gauges"]["erebor_fleet_queue_depth"] == {"": 0}


def test_fleet_trace_spans_and_events(observed_fleet):
    _report, tracer, _registry, _clock = observed_fleet
    names = {e.name for e in tracer.events}
    for wanted in ("fleet:capture", "fleet:fork", "fleet:admit",
                   "fleet:request", "fleet:warm_reset", "fleet:queue",
                   "fleet:dequeue", "fleet:session_start",
                   "fleet:session_end", "fleet:scrub_verified"):
        assert wanted in names, f"missing trace name {wanted}"


def test_fleet_bundle_is_schema_valid(observed_fleet):
    report, tracer, _registry, clock = observed_fleet
    run = ObservedRun("helloworld", "fleet", tracer, None, clock)
    bundle = export_bundle(run)
    bundle["meta"]["fleet"] = report.to_dict()
    check_export(bundle)
    assert bundle["meta"]["setting"] == "fleet"
    assert bundle["meta"]["fleet"]["requests_served"] == 6


def test_fleet_cli_report_and_bundle(tmp_path, capsys):
    out = tmp_path / "fleet.json"
    assert fleet_main(["--workload", "helloworld", "--clients", "2",
                       "--requests", "1", "--tenants", "2",
                       "--scale", "1.0", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["requests_served"] == 2
    assert report["outcomes"] == {"completed": 2}

    bundle_out = tmp_path / "bundle.json"
    assert fleet_main(["--workload", "helloworld", "--clients", "2",
                       "--requests", "1", "--tenants", "2", "--scale", "1.0",
                       "--export", "bundle", "-o", str(bundle_out)]) == 0
    bundle = json.loads(bundle_out.read_text())
    check_export(bundle)
    assert bundle["meta"]["fleet"]["requests_served"] == 2


def test_fleet_cli_slo_bundle_carries_checked_windowed_series(tmp_path):
    out = tmp_path / "slo-bundle.json"
    assert fleet_main(["--workload", "helloworld", "--clients", "2",
                       "--requests", "2", "--scale", "1.0", "--slo",
                       "--export", "bundle", "-o", str(out)]) == 0
    bundle = json.loads(out.read_text())
    check_export(bundle)
    series = bundle["metrics"]["windowed"]["erebor_fleet_latency_cycles"]
    assert series
    for summary in series.values():
        assert set(summary) == {"count", "p50", "p95", "p99"}
        assert 0 < summary["count"] <= WINDOW_SAMPLES
    # the schema checks each windowed summary's fields
    first, second = list(series)[:2]
    del series[first]["count"]
    series[second]["p95"] = "2"
    errors = validate_export(bundle)
    assert any(first in e and "missing key 'count'" in e for e in errors)
    assert any(".p95" in e for e in errors)


@pytest.mark.parametrize("argv", [
    ["--scale", "0"],
    ["--scale", "-1"],
    ["--pool", "2", "--autoscale", "--pool-max", "1"],
], ids=["scale-zero", "scale-negative", "pool-max-below-pool"])
def test_fleet_cli_rejects_invalid_knobs(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        fleet_main(["--workload", "helloworld", *argv])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_fleet_cli_cert_dir_writes_a_verifiable_batch(tmp_path, capsys):
    from repro.certs import load_certificate
    from repro.certs.__main__ import main as certs_main

    cert_dir = tmp_path / "certs"
    out = tmp_path / "fleet.json"
    assert fleet_main(["--workload", "helloworld", "--clients", "2",
                       "--requests", "1", "--tenants", "2", "--scale", "1.0",
                       "--cert-dir", str(cert_dir), "-o", str(out)]) == 0
    certs = json.loads(out.read_text())["certs"]
    assert sorted(certs) == ["client-0", "client-1"]
    for name, body_sha in certs.items():
        cert = load_certificate(cert_dir / f"cert-{name}.json")
        assert cert["body_sha256"] == body_sha, name
    assert certs_main(["verify", "--dir", str(cert_dir)]) == 0

"""Per-tenant SLO and anomaly planes, and their fleet-report surfaces.

These tests pin the acceptance criteria of the observability plane: SLO
breaches are detected from windowed percentiles and fire the flight
recorder; an exit-rate anomaly on one tenant arms *that tenant's* §12
knobs without touching other tenants' cycle accounting; and with every
plane off, seeded fleet digests are byte-identical to the pinned
pre-plane values.
"""

import json
from types import SimpleNamespace

from repro.core import erebor_boot
from repro.core.mitigations import CACHE_FLUSH_CYCLES, MitigationConfig
from repro.fleet import SloConfig, run_fleet
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.admission import AdmissionConfig, TenantQuota
from repro.fleet.goldens import (
    ANOMALY_PINNED,
    SLO_OBJECTIVES,
    SLO_PINNED,
    SMP_PARAMS,
    SMP_PINNED,
    WINDOWED_PINNED,
)
from repro.fleet.scheduler import AnomalyMonitor, SloMonitor
from repro.hw.cycles import CycleClock
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, metrics_snapshot
from repro.vm import CvmMachine, MachineConfig, MIB


# --------------------------------------------------------------------------- #
# SLO monitoring
# --------------------------------------------------------------------------- #

def test_tight_slo_breaches_and_fires_the_flight_recorder():
    slo = SloConfig(queue_wait_p95=1, service_p95=1, e2e_p99=1)
    report, system = run_fleet(slo=slo, flight=True, **SMP_PARAMS)
    breaches = report.slo["breaches"]
    assert breaches, "1-cycle objectives must breach"
    tenants = {b["tenant"] for b in breaches}
    metrics = {b["metric"] for b in breaches}
    assert "service" in metrics
    for b in breaches:
        assert b["observed"] > b["threshold"]
        assert b["quantile"] in ("p95", "p99")
    # each breach (first per tenant+metric) froze a black-box dump
    recorder = system.machine.clock.tracer
    assert recorder.triggers >= len(breaches)
    assert recorder.dumps
    assert recorder.dumps[0].reason == "slo_breach"
    # and the registry counted every breaching sample per tenant/metric
    total = system.machine.clock.metrics.counter_total(
        "erebor_fleet_slo_breaches_total")
    assert total >= len(breaches)
    assert tenants <= {"tenant-0", "tenant-1"}


def test_seeded_slo_fleet_matches_its_pins():
    report, system = run_fleet(slo=SloConfig(**SLO_OBJECTIVES), anomaly=True,
                               **SMP_PARAMS)
    assert report.slo == SLO_PINNED
    assert report.anomaly == ANOMALY_PINNED
    windowed = metrics_snapshot(system.machine.clock)["windowed"]
    # order too: the snapshot lists series as they were first observed
    assert json.dumps(windowed) == json.dumps(WINDOWED_PINNED)


def test_each_latency_sample_is_stored_once():
    clock = CycleClock()
    clock.metrics = MetricsRegistry()
    monitor = SloMonitor(clock, SloConfig(service_p95=10))
    monitor.observe("tenant-0", "service", 5)
    # the registry's windowed series IS the monitor's histogram map
    assert clock.metrics.windowed[SloMonitor.SERIES] is monitor.hists
    (key,) = monitor.hists
    assert key == "metric=service,tenant=tenant-0"
    snap = clock.metrics.snapshot()["windowed"][SloMonitor.SERIES]
    assert snap[key]["count"] == 1


def test_slo_decisions_need_no_live_registry():
    clock = CycleClock()
    assert clock.metrics is NULL_METRICS
    monitor = SloMonitor(clock, SloConfig(service_p95=10))
    for _ in range(SloMonitor.MIN_SAMPLES):
        monitor.observe("tenant-0", "service", 100)
    (breach,) = monitor.breaches
    assert (breach["tenant"], breach["observed"]) == ("tenant-0", 100)


def test_generous_slo_never_breaches():
    slo = SloConfig(queue_wait_p95=10**12, service_p95=10**12,
                    e2e_p99=10**12)
    report, _ = run_fleet(slo=slo, **SMP_PARAMS)
    assert report.slo["breaches"] == []
    assert report.slo["samples"] > 0           # the plane did observe


def test_slo_summary_rides_in_report_only_when_enabled():
    plain, _ = run_fleet(**SMP_PARAMS)
    armed, _ = run_fleet(slo=SloConfig(service_p95=1), **SMP_PARAMS)
    assert "slo" not in plain.to_dict()
    assert "breaches" in armed.to_dict()["slo"]


# --------------------------------------------------------------------------- #
# anomaly detection arms §12 per tenant
# --------------------------------------------------------------------------- #

def _system():
    return erebor_boot(CvmMachine(MachineConfig(memory_bytes=512 * MIB)),
                       cma_bytes=32 * MIB)


def test_exit_rate_spike_alerts_and_arms_only_that_tenant():
    system = _system()
    clock = system.machine.clock
    monitor = AnomalyMonitor(clock, system.monitor)
    for _ in range(5):                      # steady baseline, both tenants
        monitor.observe_request("tenant-0", exits=20, emc=10)
        monitor.observe_request("tenant-1", exits=20, emc=10)
    assert monitor.alerts == []
    monitor.observe_request("tenant-0", exits=400, emc=10)   # 20x spike
    (alert,) = monitor.alerts
    assert alert["tenant"] == "tenant-0"
    assert alert["metric"] == "exit_rate"
    assert monitor.armed == ["tenant-0"]
    # the monitor's router now holds an engine for tenant-0 only
    router = system.monitor.mitigations
    assert set(router.engines) == {"tenant-0"}
    assert "tenant-0" in router.armed_at
    # the arming decision is an audited (hash-chained) monitor event
    assert any(e.kind == "anomaly" for e in system.monitor.audit_log)
    assert system.monitor.verify_audit_chain()
    # repeated spikes keep alerting but never re-arm
    monitor.observe_request("tenant-0", exits=500, emc=10)
    assert monitor.armed == ["tenant-0"]


def test_armed_tenant_pays_mitigation_cycles_on_its_core_only():
    system = _system()
    clock = system.machine.clock
    clock.ensure_cpus(2)
    router = system.monitor.mitigation_router()
    router.arm("tenant-0", MitigationConfig(flush_on_exit=True))
    noisy = SimpleNamespace(tenant="tenant-0")
    quiet = SimpleNamespace(tenant="tenant-1")
    busy0, busy1 = clock.cpu_busy(0), clock.cpu_busy(1)
    # the exit path dispatches through monitor.mitigations on whatever
    # core is executing the exiting sandbox
    with clock.on_cpu(0):
        system.monitor.mitigations.on_sandbox_exit(noisy)
    with clock.on_cpu(1):
        system.monitor.mitigations.on_sandbox_exit(quiet)
    assert clock.cpu_busy(0) - busy0 == CACHE_FLUSH_CYCLES
    assert clock.cpu_busy(1) - busy1 == 0       # the quiet tenant is free
    assert router.stats["flushes"] == 1
    assert router.stats["per_tenant"]["tenant-0"]["flushes"] == 1


def test_fleet_wide_engine_survives_as_router_default():
    system = _system()
    system.monitor.arm_mitigations(MitigationConfig(flush_on_exit=True))
    fleet_wide = system.monitor.mitigations
    router = system.monitor.mitigation_router()
    assert router.default is fleet_wide
    # un-armed tenants still get the fleet-wide policy
    clock = system.machine.clock
    busy = clock.cycles
    router.on_sandbox_exit(SimpleNamespace(tenant="tenant-7"))
    assert clock.cycles - busy == CACHE_FLUSH_CYCLES


def test_anomaly_plane_in_fleet_run_observes_without_false_alarms():
    report, _ = run_fleet(anomaly=True, **SMP_PARAMS)
    # homogeneous seeded load: the plane is wired but stays quiet
    assert report.anomaly == {"alerts": [], "armed": []}
    assert "anomaly" in report.to_dict()


# --------------------------------------------------------------------------- #
# forced violation → flight dump with the violating span
# --------------------------------------------------------------------------- #

def test_forced_emc_violation_freezes_a_forensic_dump():
    admission = AdmissionConfig(
        queue_depth=4,
        quotas={"tenant-0": TenantQuota(max_emc_per_request=1)})
    report, system = run_fleet(admission=admission, flight=True, **SMP_PARAMS)
    assert report.outcomes.get("evicted", 0) > 0
    recorder = system.machine.clock.tracer
    assert recorder.dumps, "the kill path must trigger the recorder"
    dump = recorder.dumps[0]
    assert dump.reason == "sandbox_kill"
    assert "EMC allowance" in dump.detail
    payload = dump.to_dict()
    # the dump window honors the lookback exactly, and nothing the ring
    # dropped could have ended inside it
    from repro.obs.flight import LOOKBACK_KCYCLES
    lookback = LOOKBACK_KCYCLES * 1000
    assert payload["window"]["end"] - payload["window"]["start"] == lookback
    assert payload["window_complete"] is True
    # ...and holds the violating request's span plus the kill audit trail
    names = [e["name"] for lane in payload["per_cpu"].values()
             for e in lane["events"]]
    assert "fleet:request" in names
    assert "audit:kill" in names
    assert "flight:sandbox_kill" in names
    # the frozen audit head is the chain head at freeze time — it must
    # verify as a prefix state of the final chain
    assert len(payload["audit_head"]) == 64
    assert report.flight == {"triggers": recorder.triggers,
                             "dumps": len(recorder.dumps)}


# --------------------------------------------------------------------------- #
# off-by-default: the planes cost nothing and move nothing
# --------------------------------------------------------------------------- #

def test_pinned_digest_unchanged_with_every_plane_armed():
    plain, _ = run_fleet(**SMP_PARAMS)
    armed, _ = run_fleet(slo=SloConfig(service_p95=1),
                         anomaly=True, flight=True, **SMP_PARAMS)
    assert plain.digest() == SMP_PINNED[1]
    # observability reads the clock, never charges it: same digest
    assert armed.digest() == SMP_PINNED[1]
    assert armed.total_cycles == plain.total_cycles
    assert armed.audit_head == plain.audit_head


def test_audit_chain_rides_in_every_report():
    report, system = run_fleet(**SMP_PARAMS)
    out = report.to_dict()
    assert out["audit"]["head"] == system.monitor.audit_head
    assert out["audit"]["events"] == system.monitor.audit_seq > 0
    # the head is NOT part of the digest preimage (it fingerprints the
    # same execution); two seeded runs agree on it anyway
    again, _ = run_fleet(**SMP_PARAMS)
    assert again.audit_head == report.audit_head


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #

def test_fleet_cli_slo_violate_flight_dump(tmp_path, capsys):
    out = tmp_path / "fleet.json"
    dump = tmp_path / "flight.json"
    rc = fleet_main(["--workload", "helloworld", "--clients", "4",
                     "--requests", "2", "--scale", "1.0", "--violate",
                     "--slo", "--anomaly",
                     "--flight-dump", str(dump), "-o", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "flight:" in err and str(dump) in err
    report = json.loads(out.read_text())
    assert report["outcomes"].get("evicted", 0) > 0
    assert "slo" in report and "anomaly" in report
    assert report["audit"]["events"] > 0
    payload = json.loads(dump.read_text())
    assert payload["triggers"] >= 1
    assert payload["dumps"][0]["reason"] == "sandbox_kill"
    from repro.obs.schema import check_flight_dump
    for d in payload["dumps"]:
        check_flight_dump(d)


def test_fleet_cli_flight_dump_without_violation_dumps_manually(tmp_path):
    dump = tmp_path / "flight.json"
    rc = fleet_main(["--workload", "helloworld", "--clients", "2",
                     "--scale", "1.0", "--flight-dump", str(dump),
                     "-o", str(tmp_path / "r.json")])
    assert rc == 0
    payload = json.loads(dump.read_text())
    assert [d["reason"] for d in payload["dumps"]] == ["manual"]

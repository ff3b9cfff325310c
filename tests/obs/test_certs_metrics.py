"""Pin: certificate issuance ticks its two registry series, exactly.

``erebor_certs_issued_total{tenant}`` counts one per certifiable session
and ``erebor_certs_bytes`` observes each certificate's serialized size —
the capacity-planning surface for certificate storage. Neither series
exists until issuance is armed, so plain runs export byte-identical
metric snapshots, and a disabled registry never pays for a size.
"""

import repro.certs.issue as issue_module
from repro.certs import serialize_certificate
from repro.certs.issue import CertificateIssuer
from repro.fleet import build_fleet, run_fleet
from repro.obs.metrics import NULL_METRICS

PARAMS = dict(workload="helloworld", clients=2, requests=1, pool_size=1,
              tenants=2, seed=7, scale=1.0)


def test_issuance_ticks_both_series_with_exact_values():
    fleet = build_fleet(certificates=True, **PARAMS)
    fleet.scheduler.run(fleet.sessions)
    report = fleet.report()
    registry = fleet.machine.clock.metrics
    assert registry.counter_total("erebor_certs_issued_total") == 2
    for tenant in ("tenant-0", "tenant-1"):
        assert registry.counter_value("erebor_certs_issued_total",
                                      tenant=tenant) == 1
    hist = registry.histograms["erebor_certs_bytes"][""]
    assert hist["count"] == 2
    # the observed sizes are exactly the on-disk serializations
    expected = sum(len(serialize_certificate(c))
                   for c in fleet.certificates.values())
    assert hist["sum"] == expected
    assert report.certs and len(report.certs) == 2


def test_series_stay_absent_when_issuance_is_off(monkeypatch):
    _, system = run_fleet(**PARAMS)
    registry = system.machine.clock.metrics
    assert registry.counter_total("erebor_certs_issued_total") == 0
    assert "erebor_certs_bytes" not in registry.histograms

    # issuing against a disabled registry never serializes a certificate
    fleet = build_fleet(certificates=True, **PARAMS)
    fleet.scheduler.run(fleet.sessions)
    report = fleet.report()
    fleet.machine.clock.metrics = NULL_METRICS
    calls = []
    monkeypatch.setattr(issue_module, "serialize_certificate",
                        lambda cert: calls.append(cert) or "")
    issuer = CertificateIssuer(fleet.system, workload=PARAMS["workload"],
                               fleet_seed=PARAMS["seed"])
    certs = issuer.issue_all(fleet.scheduler.finished,
                             traces=report.traces)
    assert {name: c["body_sha256"] for name, c in certs.items()} == report.certs
    assert calls == []


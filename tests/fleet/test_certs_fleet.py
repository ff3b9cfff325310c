"""Fleet-side certificate issuance: determinism, isolation, zero cost.

Pins the integration acceptance criteria: seeded reruns produce
byte-identical certificate files; turning issuance on cannot move the
report's digest (issuance charges zero simulated cycles and rides
outside the ``_base_dict`` preimage); and a reused pool slot never leaks
the previous tenant's secrets or evidence into the next certificate.
"""

import hashlib
import json

import pytest

from repro.certs import CertificateError, serialize_certificate
from repro.certs.issue import published_refs, write_certificates
from repro.certs.verify import CertificateVerifier
from repro.core.monitor import EreborMonitor
from repro.fleet import build_fleet, run_fleet
from repro.fleet.goldens import SMP_PARAMS
from repro.fleet.loadgen import FleetReport
from tests.reference import reference_paths

#: one slot + three clients: every session after the first runs in the
#: *same* recycled sandbox — the C8 evidence-isolation shape
REUSE_PARAMS = dict(workload="helloworld", clients=3, requests=2,
                    pool_size=1, tenants=3, seed=11, scale=1.0)


def certified(params):
    """``(report, fleet)`` of one seeded certificate-issuing run."""
    fleet = build_fleet(certificates=True, **params)
    fleet.scheduler.run(fleet.sessions)
    return fleet.report(), fleet


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #

def test_seeded_reruns_issue_byte_identical_certificates(tmp_path):
    dirs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        report, fleet = certified(SMP_PARAMS)
        assert len(report.certs) == 4
        write_certificates(fleet.certificates, out)
        dirs.append(out)
    first = sorted(dirs[0].iterdir())
    second = sorted(dirs[1].iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_issuance_cannot_move_the_seeded_report_digest():
    plain, _ = run_fleet(**SMP_PARAMS)
    certified, _ = run_fleet(certificates=True, **SMP_PARAMS)
    assert certified.digest() == plain.digest()
    # the audit chain is also identical: evidence events are emitted
    # unconditionally, never gated on issuance being armed
    assert certified.audit_head == plain.audit_head
    assert certified.audit_events == plain.audit_events
    # certs ride in to_dict() only — outside the digest preimage
    assert "certs" in certified.to_dict()
    assert "certs" not in certified._base_dict()
    assert "certs" not in plain.to_dict()


def test_report_certs_map_matches_the_issued_bodies():
    report, fleet = certified(SMP_PARAMS)
    certs = fleet.certificates
    assert report.certs == {n: c["body_sha256"] for n, c in certs.items()}
    roundtrip = json.loads(report.to_json())
    assert roundtrip["certs"] == report.certs


# --------------------------------------------------------------------------- #
# pool-slot reuse: no evidence bleed between tenants
# --------------------------------------------------------------------------- #

def test_slot_reuse_never_leaks_the_previous_tenants_evidence():
    report, fleet = certified(REUSE_PARAMS)
    assert report.outcomes == {"completed": 3}
    certs = fleet.certificates
    sessions = {s.name: s for s in fleet.scheduler.finished}
    # all three sessions really did share one recycled sandbox
    sandbox_ids = {c["body"]["session"]["sandbox_id"]
                   for c in certs.values()}
    assert len(sandbox_ids) == 1
    verifier = CertificateVerifier()
    for name, cert in certs.items():
        assert verifier.verify(cert).ok
        blob = serialize_certificate(cert)
        for other, session in sessions.items():
            if other != name:
                # neither the neighbour's plaintext secret nor any of
                # its payload bytes may surface in this certificate
                assert session.secret.decode() not in blob
        # ... and no certificate carries anyone's request plaintext
        assert sessions[name].secret.decode() not in blob
    # per-session evidence stays distinct despite the shared slot
    assert len({c["body"]["scrub"]["digest"] for c in certs.values()}) == 3
    assert len({c["body"]["trace"]["trace_id"] for c in certs.values()}) == 3
    for name, cert in certs.items():
        assert cert["body"]["trace"]["trace_id"] == report.traces[name]


def test_audit_windows_are_anchored_per_session():
    _, fleet = certified(REUSE_PARAMS)
    for cert in fleet.certificates.values():
        audit = cert["body"]["audit"]
        segment = cert["attachments"]["audit_segment"]
        assert audit["seq_start"] == segment[0]["seq"]
        assert audit["seq_end"] - 1 == segment[-1]["seq"]
        assert audit["committed_head"] == segment[-1]["digest"]
        assert audit["segment_prev"] == segment[0]["prev"]


@pytest.mark.parametrize("params", [REUSE_PARAMS, SMP_PARAMS],
                         ids=["reuse", "smp"])
def test_audit_windows_open_at_binding(params):
    """A window opens when its session is bound to a slot: it holds the
    session's own admit once, its own scrub once, and nothing of a
    session that closed before this one was bound, not even the scrub
    of the same recycled sandbox."""
    _, fleet = certified(params)
    finished = fleet.scheduler.finished
    closed_at = {s.name: s.audit_window[-1].seq for s in finished}
    for session in finished:
        segment = fleet.certificates[session.name][
            "attachments"]["audit_segment"]
        assert segment[0]["seq"] == session.audit_seq_start
        own = f"session {session.name} "
        assert [e["kind"] for e in segment
                if own in e["detail"]].count("admit") == 1
        sandbox = f"sandbox #{session.sandbox_id} "
        assert [e for e in segment if e["kind"] == "scrub"
                and sandbox in e["detail"]] == segment[-1:]
        earlier = [f"session {t.name} " for t in finished
                   if closed_at[t.name] < session.audit_seq_start]
        assert not [e for e in segment for needle in earlier
                    if needle in e["detail"]]
    if params is REUSE_PARAMS:
        # one slot: every session after the first was bound after its
        # predecessor closed
        assert all(closed_at[a.name] < b.audit_seq_start
                   for a, b in zip(finished, finished[1:]))


def test_ring_pressure_leaves_every_session_issuable(monkeypatch):
    """A ring far smaller than the fleet's audit chain: each window is
    held when its session closes, so every session still issues and
    every certificate verifies offline."""
    monkeypatch.setattr(EreborMonitor, "AUDIT_LOG_CAPACITY", 32)
    report, fleet = certified(dict(
        workload="helloworld", clients=12, requests=1, pool_size=1,
        tenants=2, seed=7, scale=1.0))
    assert report.outcomes == {"completed": 12}
    assert fleet.system.monitor.audit_log.dropped > 0
    certs = fleet.certificates
    assert sorted(certs) == sorted(f"client-{i}" for i in range(12))
    verifier = CertificateVerifier(refs=published_refs())
    for name, cert in certs.items():
        result = verifier.verify(cert)
        assert result.ok, f"{name}: [{result.code}] {result.detail}"


def test_a_window_the_ring_evicted_is_refused(monkeypatch):
    """A session whose own window outgrew the ring before close has no
    whole segment to certify: issuance refuses it with
    ``audit-evidence``."""
    monkeypatch.setattr(EreborMonitor, "AUDIT_LOG_CAPACITY", 4)
    fleet = build_fleet(certificates=True, **dict(REUSE_PARAMS, clients=1))
    fleet.scheduler.run(fleet.sessions)
    session = fleet.scheduler.finished[0]
    assert session.audit_window[0].seq > session.audit_seq_start
    with pytest.raises(CertificateError) as exc:
        fleet.report()
    assert exc.value.code == "audit-evidence"


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

def test_issuance_metrics_count_certificates_and_bytes():
    report, system = run_fleet(certificates=True, **SMP_PARAMS)
    registry = system.machine.clock.metrics
    issued = registry.counter_total("erebor_certs_issued_total")
    assert issued == len(report.certs) == 4
    # per-tenant labels: 2 tenants x 2 clients each
    assert registry.counter_value("erebor_certs_issued_total",
                                  tenant="tenant-0") == 2
    assert registry.counter_value("erebor_certs_issued_total",
                                  tenant="tenant-1") == 2
    hist = registry.histograms["erebor_certs_bytes"][""]
    assert hist["count"] == 4
    assert hist["sum"] > 0


def test_certs_field_defaults_keep_old_reports_loadable():
    """A FleetReport built without the new field still serializes."""
    assert FleetReport.__dataclass_fields__["certs"].default_factory is dict


# --------------------------------------------------------------------------- #
# reference twin
# --------------------------------------------------------------------------- #

def _certified_run_outputs():
    report, fleet = certified(REUSE_PARAMS)
    return (report.digest(), report.audit_head,
            {name: serialize_certificate(cert)
             for name, cert in fleet.certificates.items()},
            # the host-visible wire carries both DH public values
            hashlib.sha256(fleet.machine.vmm.observed_blob()).hexdigest())


def test_certified_fleet_matches_its_reference_twin():
    """Host fast paths on vs `reference_paths()`: the same report digest,
    audit head, certificate bytes and host-visible wire."""
    fast = _certified_run_outputs()
    with reference_paths():
        reference = _certified_run_outputs()
    assert len(fast[2]) == 3
    assert fast == reference

"""Execution certificates: offline verification + the tamper corpus.

One seeded fleet run (with a tenant-0 EMC-quota eviction, so both the
``completed`` and ``evicted`` arcs are exercised) produces the batch;
everything after that runs the *client's* side: verify against the
published goldens, reject every tamper variant with its own localized
code, and — the import-purity acceptance check — verify the whole
directory in a subprocess that never loads the simulator.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.certs import CertificateError, load_certificate, \
    serialize_certificate
from repro.certs.__main__ import main as certs_main
from repro.certs.issue import published_refs, write_certificates
from repro.certs.tamper import TAMPERS, tamper_certificate
from repro.certs.verify import CertificateVerifier, verify_certificate
from repro.fleet import build_fleet
from repro.fleet.admission import AdmissionConfig, TenantQuota

PARAMS = dict(workload="helloworld", clients=3, requests=2, pool_size=1,
              tenants=2, seed=11, scale=1.0)

#: tenant-0 (client-0, client-2) blows a 1-EMC allowance and is evicted;
#: tenant-1 (client-1) completes — one run covers both certificate arcs
VIOLATING = AdmissionConfig(
    queue_depth=3, quotas={"tenant-0": TenantQuota(max_emc_per_request=1)})

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    fleet = build_fleet(admission=VIOLATING, certificates=True, **PARAMS)
    fleet.scheduler.run(fleet.sessions)
    report = fleet.report()
    certs = fleet.certificates
    cert_dir = tmp_path_factory.mktemp("certs")
    write_certificates(certs, cert_dir)
    return report, certs, cert_dir


@pytest.fixture(scope="module")
def verifier():
    return CertificateVerifier(refs=published_refs())


# --------------------------------------------------------------------------- #
# honest certificates verify — both outcomes, with and without goldens
# --------------------------------------------------------------------------- #

def test_every_session_outcome_is_covered(batch):
    report, certs, _ = batch
    assert report.outcomes == {"completed": 1, "evicted": 2}
    assert sorted(certs) == ["client-0", "client-1", "client-2"]
    outcomes = {n: c["body"]["session"]["outcome"] for n, c in certs.items()}
    assert outcomes == {"client-0": "evicted", "client-1": "completed",
                       "client-2": "evicted"}


def test_all_certificates_verify_against_published_goldens(batch, verifier):
    _, certs, _ = batch
    for name, cert in certs.items():
        result = verifier.verify(cert)
        assert result.ok, f"{name}: [{result.code}] {result.detail}"
        assert result.session == name
        assert "platform" in result.checks
        assert "audit-arc" in result.checks


def test_verification_is_self_contained_without_goldens(batch):
    """No published.json: platform goldens are skipped but the RTMR[3] ↔
    kernel-digest proof, chain, scrub, and trace checks all still run."""
    _, certs, _ = batch
    result = verify_certificate(certs["client-1"])
    assert result.ok
    assert "platform" not in result.checks
    assert "kernel-digest" in result.checks


def test_evicted_certificate_carries_the_kill_arc(batch):
    _, certs, _ = batch
    cert = certs["client-0"]
    assert cert["attachments"]["scrub_record"]["kind"] == "kill-scrub"
    kinds = {e["kind"] for e in cert["attachments"]["audit_segment"]}
    assert "kill" in kinds
    # eviction is post-hoc: the violating request itself completed, so
    # the causal arc is intact — only the outcome records the quota kill
    assert cert["body"]["session"]["served"] == 1
    assert cert["body"]["trace"]["complete"]


def test_completed_certificate_carries_the_full_arc(batch):
    _, certs, _ = batch
    cert = certs["client-1"]
    assert cert["attachments"]["scrub_record"]["kind"] == "scrub-verify"
    kinds = [e["kind"] for e in cert["attachments"]["audit_segment"]]
    assert "admit" in kinds and "response" in kinds and "scrub" in kinds
    assert cert["body"]["trace"]["complete"]
    assert cert["body"]["session"]["served"] == PARAMS["requests"]


def test_expect_trace_binds_the_certificate_to_one_session(batch, verifier):
    report, certs, _ = batch
    cert = certs["client-1"]
    ok = verifier.verify(cert, expect_trace=report.traces["client-1"])
    assert ok and "session-binding" in ok.checks
    swapped = verifier.verify(cert, expect_trace=report.traces["client-0"])
    assert not swapped and swapped.code == "session-binding"


# --------------------------------------------------------------------------- #
# the tamper corpus: every forgery class fails with its own code
# --------------------------------------------------------------------------- #

def test_every_tamper_variant_fails_with_its_own_code(batch, verifier):
    _, certs, _ = batch
    names = sorted(certs)
    for i, name in enumerate(names):
        donor = certs[names[(i + 1) % len(names)]]
        for variant, (expected, _fn, _donor) in sorted(TAMPERS.items()):
            result = verifier.verify(
                tamper_certificate(certs[name], variant, donor))
            assert not result.ok, f"{name} x {variant} verified"
            assert result.code == expected, \
                f"{name} x {variant}: [{result.code}] != [{expected}]"


def test_tampering_never_mutates_the_original(batch, verifier):
    _, certs, _ = batch
    cert = certs["client-1"]
    before = serialize_certificate(cert)
    for variant in TAMPERS:
        tamper_certificate(cert, variant, certs["client-0"])
    assert serialize_certificate(cert) == before
    assert verifier.verify(cert).ok


def test_replay_needs_a_donor_and_unknown_variants_are_errors(batch):
    _, certs, _ = batch
    with pytest.raises(CertificateError):
        tamper_certificate(certs["client-1"], "replayed-quote", None)
    with pytest.raises(CertificateError):
        tamper_certificate(certs["client-1"], "no-such-variant")


def test_signed_reset_only_scrub_record_is_not_scrub_evidence(batch,
                                                              verifier):
    """A bare reset (no plaintext scan) never certifies C8.

    The record hashes to the committed scrub digest and the platform
    signs the body, so every earlier check passes; the verifier's record
    kind check is what rejects it. Certificates are outside input, so
    the check stays although no pool writes such a record.
    """
    from repro.certs import (
        bind_report_data,
        body_digest,
        canonical_json,
        sha256_hex,
    )
    from repro.tdx.attestation import AttestationAuthority, TdReport

    _, certs, _ = batch
    cert = json.loads(json.dumps(certs["client-1"]))
    honest = cert["attachments"]["scrub_record"]
    record = {"kind": "reset-only", "sandbox": honest["sandbox"],
              "cycle": honest["cycle"]}
    cert["attachments"]["scrub_record"] = record
    cert["body"]["scrub"]["digest"] = sha256_hex(canonical_json(record))
    cert["body_sha256"] = body_digest(cert["body"])
    quote = cert["quote"]
    report = TdReport(mrtd=bytes.fromhex(quote["mrtd"]),
                      rtmrs=tuple(bytes.fromhex(r) for r in quote["rtmrs"]),
                      report_data=bind_report_data(cert["body_sha256"]))
    quote["report_data"] = report.report_data.hex()
    quote["signature"] = AttestationAuthority().sign(report).signature.hex()

    result = verifier.verify(cert)
    assert not result.ok
    assert result.code == "scrub-evidence"
    assert "'reset-only' is not scrub evidence" in result.detail
    assert {"quote-signature", "body-digest", "quote-binding",
            "kernel-digest"} <= set(result.checks)


# --------------------------------------------------------------------------- #
# the CLI — and the no-simulator import-purity acceptance check
# --------------------------------------------------------------------------- #

def test_cli_verifies_the_batch_directory(batch, capsys):
    _, certs, cert_dir = batch
    assert certs_main(["verify", "--dir", str(cert_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == len(certs) and "FAIL" not in out


def test_cli_rejects_a_tampered_file_on_disk(batch, tmp_path, capsys):
    _, certs, cert_dir = batch
    bad = tamper_certificate(certs["client-1"], "mutated-claim")
    path = tmp_path / "cert-doctored.json"
    path.write_text(serialize_certificate(bad))
    rc = certs_main(["verify", str(path),
                     "--published", str(cert_dir / "published.json")])
    assert rc == 1
    assert "[body-digest]" in capsys.readouterr().out


def test_cli_check_tamper_matrix_is_fully_rejected(batch, capsys):
    _, certs, cert_dir = batch
    assert certs_main(["check-tamper", "--dir", str(cert_dir)]) == 0
    out = capsys.readouterr().out
    expected = len(certs) * len(TAMPERS)
    assert f"{expected}/{expected} correctly rejected" in out


def test_cli_show_summarizes_claims(batch, capsys):
    _, _, cert_dir = batch
    assert certs_main(["show", str(cert_dir / "cert-client-1.json")]) == 0
    out = capsys.readouterr().out
    assert "client-1" in out and "completed" in out


def test_offline_verifier_never_imports_the_simulator(batch):
    """Acceptance: the whole batch verifies in a fresh process whose
    ``sys.modules`` never contains the machine, kernel, or fleet."""
    _, certs, cert_dir = batch
    code = textwrap.dedent(f"""
        import sys
        from repro.certs.__main__ import main
        rc = main(["verify", "--dir", {str(cert_dir)!r}])
        banned = [m for m in sys.modules if m.startswith(
            ("repro.hw", "repro.kernel", "repro.fleet", "repro.vm",
             "repro.core.boot", "repro.apps", "repro.libos"))]
        assert rc == 0, f"verify failed: rc={{rc}}"
        assert not banned, f"simulator leaked into the client: {{banned}}"
        print("PURE")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PURE" in proc.stdout
    assert proc.stdout.count("OK") == len(certs)


# --------------------------------------------------------------------------- #
# on-disk format stability
# --------------------------------------------------------------------------- #

def test_written_files_roundtrip_and_carry_goldens(batch):
    _, certs, cert_dir = batch
    for name, cert in certs.items():
        assert load_certificate(cert_dir / f"cert-{name}.json") == cert
    refs = json.loads((cert_dir / "published.json").read_text())
    assert refs == published_refs()
    assert refs["mrtd"] and refs["rtmrs"]["3"]


# --------------------------------------------------------------------------- #
# the dataflow plane in certificate bodies
# --------------------------------------------------------------------------- #

def test_certificates_commit_the_dataflow_proof(batch, verifier):
    """Every body carries the dataflow digest and the proven budget, and
    the offline kernel-digest check replays the two-extension RTMR[3]
    chain (CFG digest then dataflow digest)."""
    _report, certs, _cert_dir = batch
    for name, cert in certs.items():
        kernel = cert["body"]["kernel"]
        assert kernel["dataflow_digest"], name
        budget = kernel["static_budget"]
        assert budget["exits_per_activation"] == 0
        assert budget["emc_per_activation"] > 0
        result = verifier.verify(cert)
        assert result.ok and "kernel-digest" in result.checks


def test_forged_dataflow_digest_breaks_the_rtmr_chain(batch, verifier):
    _report, certs, _cert_dir = batch
    forged = json.loads(json.dumps(certs["client-1"]))
    forged["body"]["kernel"]["dataflow_digest"] = "00" * 32
    result = verifier.verify(forged)
    assert not result.ok

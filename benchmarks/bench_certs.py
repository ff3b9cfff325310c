"""Certificate issuance bench: zero simulated cycles, host-ms budget.

Issuance composes evidence that already exists when a session closes
(audit anchors, the scrub record, the tracer ring, the boot-time
measurement registers) and signs through the platform authority
directly — never through the cycle-charged in-CVM attest flow. The
design contract is therefore the same as the obs plane's
(``bench_obs_overhead.py``): **zero** simulated overhead, proven by
digest equality between a certified and a bare run of the same seed.
What issuance does cost is host time; this bench measures it with the
same alternating min-of-N methodology (one timed arm per round, ratio
of minimums) and records the per-certificate issuance cost plus the
serialized sizes in ``BENCH_certs.json``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.report import format_table
from repro.certs import serialize_certificate
from repro.certs.issue import CertificateIssuer
from repro.certs.verify import CertificateVerifier
from repro.fleet import run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS
from repro.obs.reqtrace import RequestTraceIndex

CLIENTS = LLAMA_FLEET_PARAMS["clients"]
_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = _ROOT / "BENCH_certs.json"

#: alternating bare/certified timing rounds; host cost = min/min ratio
ROUNDS = 3


def _timed_run(**extra):
    t0 = time.perf_counter()
    report, system = run_fleet(**LLAMA_FLEET_PARAMS, **extra)
    return report, system, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs():
    """Alternating bare/certified rounds; each arm keeps its fastest."""
    bare = certified = None
    for _ in range(ROUNDS):
        candidate = _timed_run()
        if bare is None or candidate[2] < bare[2]:
            bare = candidate
        candidate = _timed_run(certificates=True)
        if certified is None or candidate[2] < certified[2]:
            certified = candidate
    return {"off": bare, "on": certified}


def _issuance_only_ms(system, report) -> float:
    """Re-issue the batch on the already-drained system: the marginal
    host cost of evidence composition + signing, ring indexing included
    (min of 5 repeats; the fleet run itself is excluded)."""
    issuer = CertificateIssuer(system, workload=report.workload,
                               fleet_seed=report.seed)
    sessions = system.fleet_scheduler.finished
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        index = RequestTraceIndex.from_tracer(system.machine.clock.tracer,
                                              names=report.traces)
        for session in sessions:
            issuer.issue(session, index)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def write_artifact(runs) -> dict:
    bare, _, bare_host = runs["off"]
    certified, system, certified_host = runs["on"]
    certs = system.fleet_certificates
    sizes = sorted(len(serialize_certificate(c)) for c in certs.values())
    issue_ms = _issuance_only_ms(system, certified)
    verifier = CertificateVerifier()
    t0 = time.perf_counter()
    verified = sum(bool(verifier.verify(c)) for c in certs.values())
    verify_ms = (time.perf_counter() - t0) * 1000.0
    payload = {
        "workload": LLAMA_FLEET_PARAMS["workload"],
        "clients": CLIENTS,
        "n_cpus": LLAMA_FLEET_PARAMS["n_cpus"],
        "seed": LLAMA_FLEET_PARAMS["seed"],
        "timing_rounds": ROUNDS,
        "certs_issued": len(certs),
        "certs_verified": verified,
        # the design contract: issuance charges zero simulated cycles
        "simulated_overhead": round(
            certified.serve_wall_cycles / bare.serve_wall_cycles - 1.0, 6),
        "digest_off": bare.digest(),
        "digest_on": certified.digest(),
        "host_seconds_off": round(bare_host, 4),
        "host_seconds_on": round(certified_host, 4),
        # host-side cost (informational, not asserted: CI noise)
        "host_overhead": round(certified_host / bare_host - 1.0, 4),
        "issue_host_ms_batch": round(issue_ms, 3),
        "issue_host_ms_per_cert": round(issue_ms / len(certs), 3),
        "verify_host_ms_per_cert": round(verify_ms / len(certs), 3),
        "cert_bytes_min": sizes[0],
        "cert_bytes_max": sizes[-1],
        "cert_bytes_mean": int(sum(sizes) / len(sizes)),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def certs_table(payload) -> str:
    rows = [
        ["issue (batch)", f"{payload['issue_host_ms_batch']:.2f} ms",
         f"{payload['issue_host_ms_per_cert']:.2f} ms/cert"],
        ["verify (offline)", "-",
         f"{payload['verify_host_ms_per_cert']:.2f} ms/cert"],
        ["certificate size", f"{payload['cert_bytes_mean']:,} B mean",
         f"{payload['cert_bytes_max']:,} B max"],
    ]
    return format_table(
        f"Execution certificates, {payload['certs_issued']} llama sessions "
        "(0 simulated cycles)",
        ["stage", "batch", "per certificate"], rows)


def test_issuance_charges_zero_simulated_cycles(benchmark, runs):
    payload = benchmark.pedantic(lambda: write_artifact(runs),
                                 rounds=1, iterations=1)
    # digest equality IS the zero-cycle proof: same seed, same preimage
    assert payload["simulated_overhead"] == 0.0
    assert payload["digest_on"] == payload["digest_off"]
    assert payload["certs_issued"] == CLIENTS
    assert payload["certs_verified"] == CLIENTS
    assert payload["cert_bytes_min"] > 0
    print("\n" + certs_table(payload))


def test_issued_batch_survives_offline_verification(runs):
    _, system, _ = runs["on"]
    verifier = CertificateVerifier()
    for name, cert in system.fleet_certificates.items():
        result = verifier.verify(cert)
        assert result.ok, f"{name}: [{result.code}] {result.detail}"

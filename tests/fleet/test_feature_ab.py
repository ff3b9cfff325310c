"""Feature A/B on the seeded llama fleet: host-side features move no cycle.

The host fast paths, execution certificates and the armed obs plane
(flight recorder + SLO histograms + anomaly detectors) only ever spend
host time. Each A/B pair below runs the same seed with the feature on
and off and requires the simulated outputs to be byte-identical: the
report digest and the serve wall cycles, and with certificates on both
sides, the certificate bodies and request trace-tree digests too. The
fast paths are turned off by ``tests.reference.reference_paths()``,
whose twin also compares the machine state, the host-visible wire and
the plane totals. The armed run doubles as the host-profiler run, which
must attribute at least ``MIN_HOSTPROF_COVERAGE`` of its window to named
subsystems.
"""

from contextlib import nullcontext

import pytest

from repro.certs.verify import CertificateVerifier
from repro.fleet import SloConfig, build_fleet, run_fleet
from repro.fleet.goldens import (
    LLAMA_FLEET_PARAMS,
    LLAMA_PINNED,
    LLAMA_PLANES,
    LLAMA_STATE_PINNED,
    LLAMA_WIRE_PINNED,
    SMP_PARAMS,
    SMP_PINNED,
    SMP_PLANES,
)
from repro.obs.hostprof import profile_fleet
from repro.obs.reqtrace import RequestTraceIndex
from tests.machine_state import machine_state_digest, wire_digest
from tests.reference import reference_paths
from tests.ticks import tick_runs

#: floor on the armed run's host window the profiler must attribute
MIN_HOSTPROF_COVERAGE = 0.90

ARMED_PARAMS = dict(flight=True,
                    slo=SloConfig(queue_wait_p95=10**12,
                                  service_p95=10**12, e2e_p99=10**12),
                    anomaly=True)


@pytest.fixture(scope="module")
def bare(llama_report):
    return llama_report(LLAMA_FLEET_PARAMS["n_cpus"])


@pytest.fixture(scope="module")
def certified():
    """One certificate-issuing run on the host fast paths ("fast") and
    one under `reference_paths()` ("reference")."""
    arms = {}
    for name, arm in (("fast", nullcontext), ("reference", reference_paths)):
        ticks = []
        with arm(), tick_runs(ticks):
            fleet = build_fleet(certificates=True, **LLAMA_FLEET_PARAMS)
            fleet.scheduler.run(fleet.sessions)
            report = fleet.report()
        machine = fleet.machine
        index = RequestTraceIndex.from_tracer(machine.clock.tracer,
                                              names=report.traces)
        arms[name] = {
            "report": report,
            "certificates": fleet.certificates,
            "trace_digests": index.digests(),
            "state": machine_state_digest(fleet.system),
            "wire": wire_digest(fleet.system),
            "ticks": ticks,
            "run_pages": machine.cpu.mmu.run_pages,
            "sb_exec": machine.cpu.tcache.sb_exec,
        }
    return arms


@pytest.fixture(scope="module")
def armed():
    """The obs-armed run, under the host profiler."""
    (report, system), profiler = profile_fleet(
        lambda: run_fleet(**LLAMA_FLEET_PARAMS, **ARMED_PARAMS))
    return {"report": report,
            "trace_events": len(system.machine.clock.tracer.events),
            "profiler": profiler}


def test_host_fast_paths_change_no_simulated_output(certified):
    fast, ref = certified["fast"], certified["reference"]
    assert fast["report"].digest() == ref["report"].digest() == LLAMA_PINNED
    assert (fast["report"].serve_wall_cycles
            == ref["report"].serve_wall_cycles)
    assert fast["report"].total_cycles == ref["report"].total_cycles
    assert fast["report"].certs == ref["report"].certs
    assert fast["report"].certs
    assert fast["trace_digests"] == ref["trace_digests"]
    assert fast["trace_digests"]
    assert fast["state"] == ref["state"] == LLAMA_STATE_PINNED
    assert fast["wire"] == ref["wire"] == LLAMA_WIRE_PINNED
    assert (fast["report"].ledger["planes"] == ref["report"].ledger["planes"]
            == LLAMA_PLANES)
    # the fast arm passed pages as spans in the MMU's walk; the reference
    # arm checked every page alone, ran no superblock and booked every
    # timer tick alone
    assert fast["run_pages"] > 0
    assert ref["run_pages"] == 0
    assert ref["sb_exec"] == 0
    assert ref["ticks"] and set(ref["ticks"]) == {1}


@pytest.mark.parametrize("n_cpus", sorted(SMP_PINNED))
def test_pinned_smp_fleet_is_identical_with_the_cache_off(n_cpus):
    with reference_paths():
        report, _ = run_fleet(n_cpus=n_cpus, **SMP_PARAMS)
    assert report.digest() == SMP_PINNED[n_cpus]
    assert report.ledger["planes"] == SMP_PLANES


def test_certificates_cost_zero_cycles_and_verify_offline(bare, certified):
    on = certified["fast"]
    assert on["report"].digest() == bare.digest()
    certificates = on["certificates"]
    assert len(certificates) == LLAMA_FLEET_PARAMS["clients"]
    verifier = CertificateVerifier()
    for name, cert in certificates.items():
        result = verifier.verify(cert)
        assert result.ok, f"{name}: [{result.code}] {result.detail}"


def test_armed_obs_plane_costs_zero_cycles(bare, armed):
    assert armed["report"].digest() == bare.digest()
    assert armed["report"].serve_wall_cycles == bare.serve_wall_cycles
    assert armed["trace_events"] > 0


def test_host_profiler_attributes_the_armed_fleet(armed):
    profiler = armed["profiler"]
    report = profiler.report()
    assert report["coverage"] >= MIN_HOSTPROF_COVERAGE, (
        f"host profiler attributed only {report['coverage']:.1%} of the "
        f"armed llama-fleet window (floor {MIN_HOSTPROF_COVERAGE:.0%})")
    # self-time accounting: shares sum to the coverage, never past it
    assert sum(row["share"] for row in report["subsystems"]) <= 1.0 + 1e-6
    assert profiler.collapsed()

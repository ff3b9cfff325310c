"""Flight-recorder overhead bench: obs-on vs obs-off on the llama fleet.

The observability plane's design contract is that it *reads* the cycle
clock and never charges it, so its overhead in simulated cycles is
exactly zero: a fleet run with the flight recorder, windowed SLO
histograms and anomaly detectors all armed must produce the byte-for-byte
same wall cycles (and report digest) as the bare run. This bench pins
that — the acceptance bound is < 10% extra wall cycles, the measured
value is 0% — and reports the *host-side* wall-time cost of recording
in ``BENCH_obs_overhead.json``.

Host-time methodology: one timed run of each arm is noise (the same bare
fleet varies by >30% run to run on a shared machine), so the bench
alternates bare/armed rounds and takes the **ratio of minimums** —
the minimum is the least-perturbed observation of each arm, and
alternating keeps slow machine phases from landing on one arm only.

The second half of the bench turns the profiler on itself: a
:class:`~repro.obs.hostprof.HostProfiler` run of the armed fleet must
attribute at least 90% of host wall-time to named simulator subsystems
(the honest-accounting bar from the module docstring), and the ranked
top-10 table lands in ``bench_tables.txt`` next to the overhead table.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.report import format_table
from repro.fleet import AnomalyConfig, SloConfig, run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS
from repro.obs.hostprof import profile_fleet

CLIENTS = LLAMA_FLEET_PARAMS["clients"]
_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = _ROOT / "BENCH_obs_overhead.json"
TABLES = _ROOT / "bench_tables.txt"

ARMED_PARAMS = dict(flight=True,
                    slo=SloConfig(queue_wait_p95=10**12,
                                  service_p95=10**12, e2e_p99=10**12),
                    anomaly=AnomalyConfig())

#: acceptance bound on simulated wall-cycle overhead (design value: 0)
MAX_OVERHEAD = 0.10

#: alternating bare/armed timing rounds; host overhead = min/min ratio
ROUNDS = 3

#: floor on host wall-time the profiler must attribute to named subsystems
MIN_HOSTPROF_COVERAGE = 0.90


def _timed_run(**extra):
    t0 = time.perf_counter()
    report, system = run_fleet(**LLAMA_FLEET_PARAMS, **extra)
    host_seconds = time.perf_counter() - t0
    return report, system, host_seconds


@pytest.fixture(scope="module")
def runs():
    """Alternating bare/armed rounds; each arm keeps its fastest round."""
    bare = armed = None
    for _ in range(ROUNDS):
        candidate = _timed_run()
        if bare is None or candidate[2] < bare[2]:
            bare = candidate
        candidate = _timed_run(**ARMED_PARAMS)
        if armed is None or candidate[2] < armed[2]:
            armed = candidate
    return {"off": bare, "on": armed}


@pytest.fixture(scope="module")
def hostprof():
    """One profiled armed run (kept out of the timing rounds: the probe
    itself costs host time and must not pollute the overhead ratio)."""
    (_, _), profiler = profile_fleet(
        lambda: run_fleet(**LLAMA_FLEET_PARAMS, **ARMED_PARAMS))
    return profiler


def write_artifact(runs, profiler) -> dict:
    (bare, _, bare_host) = runs["off"]
    (armed, system, armed_host) = runs["on"]
    recorder = system.machine.clock.tracer
    hostprof_report = profiler.report()
    payload = {
        "workload": LLAMA_FLEET_PARAMS["workload"],
        "clients": CLIENTS,
        "n_cpus": LLAMA_FLEET_PARAMS["n_cpus"],
        "seed": LLAMA_FLEET_PARAMS["seed"],
        "max_overhead_bound": MAX_OVERHEAD,
        "timing_rounds": ROUNDS,
        "obs_off": {
            "serve_wall_cycles": bare.serve_wall_cycles,
            "total_cycles": bare.total_cycles,
            "digest": bare.digest(),
            "host_seconds": round(bare_host, 4),
        },
        "obs_on": {
            "serve_wall_cycles": armed.serve_wall_cycles,
            "total_cycles": armed.total_cycles,
            "digest": armed.digest(),
            "host_seconds": round(armed_host, 4),
            "trace_events": len(recorder.events),
            "flight_rings": len(recorder.rings),
            "slo_samples": armed.slo["samples"],
        },
        "simulated_overhead": round(
            armed.serve_wall_cycles / bare.serve_wall_cycles - 1.0, 6),
        # host-side recording cost: min-of-N over alternating rounds
        # (informational, not asserted: CI machines are noisy; the
        # simulated model is the contract)
        "host_overhead": round(armed_host / bare_host - 1.0, 4),
        "hostprof": {
            "window_s": hostprof_report["window_s"],
            "coverage": hostprof_report["coverage"],
            "min_coverage_bound": MIN_HOSTPROF_COVERAGE,
            "entry_overhead_us": hostprof_report["entry_overhead_us"],
            "subsystems": hostprof_report["subsystems"][:10],
        },
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def overhead_table(payload) -> str:
    overhead = payload["simulated_overhead"]
    rows = [
        ["off", f"{payload['obs_off']['serve_wall_cycles']:,}", "-",
         f"{payload['obs_off']['host_seconds']:.2f}s"],
        ["on", f"{payload['obs_on']['serve_wall_cycles']:,}",
         f"{overhead * 100:.2f}%",
         f"{payload['obs_on']['host_seconds']:.2f}s"],
    ]
    return format_table(
        "Flight-recorder overhead, 8 llama forks x 2 requests on 4 cores",
        ["obs", "serve wall cycles", "overhead", "host time"], rows)


def write_tables(payload, profiler) -> str:
    text = "\n\n".join([overhead_table(payload),
                        profiler.render_table(top=10)]) + "\n"
    TABLES.write_text(text)
    return text


def test_flight_recorder_overhead_under_bound(benchmark, runs, hostprof):
    payload = benchmark.pedantic(lambda: write_artifact(runs, hostprof),
                                 rounds=1, iterations=1)
    overhead = payload["simulated_overhead"]
    assert overhead <= MAX_OVERHEAD
    # the design value is exactly zero: same cycles, same digest
    assert overhead == 0.0
    assert payload["obs_on"]["digest"] == payload["obs_off"]["digest"]
    assert payload["obs_on"]["trace_events"] > 0
    print("\n" + write_tables(payload, hostprof))


def test_hostprof_attributes_ninety_percent(hostprof):
    report = hostprof.report()
    assert report["coverage"] >= MIN_HOSTPROF_COVERAGE, (
        f"host profiler attributed only {report['coverage']:.1%} of the "
        f"armed llama-fleet window (bound {MIN_HOSTPROF_COVERAGE:.0%})")
    # self-time accounting: shares must sum to the coverage, never past it
    total_share = sum(r["share"] for r in report["subsystems"])
    assert total_share <= 1.0 + 1e-6
    assert hostprof.collapsed()   # flamegraph input is non-empty

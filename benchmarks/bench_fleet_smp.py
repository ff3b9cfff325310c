"""SMP fleet bench: throughput scaling across core counts + determinism.

Runs the llama-fork fleet (8 clients, 8-slot pool — every session a
concurrent CoW fork) at 1, 2, 4 and 8 simulated cores and pins the PR's
headline number: 4 cores serve the same offered load at >=3.0x the
single-core wall-clock throughput. The full sweep is written to
``BENCH_fleet_smp.json`` at the repo root as the scaling artifact
(per-core-count wall cycles, speedups, digests, core busy breakdown).
"""

import json
from pathlib import Path

import pytest

from repro.bench.report import format_table
from repro.fleet import run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS

CLIENTS = LLAMA_FLEET_PARAMS["clients"]
CORE_COUNTS = (1, 2, 4, 8)
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_fleet_smp.json"


@pytest.fixture(scope="module")
def sweep():
    """{n_cpus: FleetReport} for the same offered load at each width."""
    return {n: run_fleet(**dict(LLAMA_FLEET_PARAMS, n_cpus=n))[0]
            for n in CORE_COUNTS}


def write_artifact(sweep) -> dict:
    base = sweep[1].serve_wall_cycles
    payload = {
        "workload": LLAMA_FLEET_PARAMS["workload"],
        "clients": CLIENTS,
        "requests_per_client": LLAMA_FLEET_PARAMS["requests"],
        "pool_size": LLAMA_FLEET_PARAMS["pool_size"],
        "seed": LLAMA_FLEET_PARAMS["seed"],
        "scaling": [
            {
                "n_cpus": n,
                "serve_wall_cycles": r.serve_wall_cycles,
                "serve_cycles": r.serve_cycles,
                "speedup_vs_1core": round(base / r.serve_wall_cycles, 4),
                "throughput_rps": round(r.throughput_rps, 4),
                "requests_per_wall_kcycle":
                    round(r.requests_per_wall_kcycle, 6),
                "core_busy_cycles": r.core_busy_cycles,
                "digest": r.digest(),
            }
            for n, r in sorted(sweep.items())
        ],
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_four_cores_serve_at_least_3x(benchmark, sweep):
    payload = benchmark.pedantic(lambda: write_artifact(sweep),
                                 rounds=1, iterations=1)
    by_cores = {row["n_cpus"]: row for row in payload["scaling"]}
    # PR acceptance: 4-core throughput >= 3.0x single-core on llama forks
    assert by_cores[4]["speedup_vs_1core"] >= 3.0
    assert by_cores[2]["speedup_vs_1core"] >= 1.8
    assert by_cores[8]["speedup_vs_1core"] >= 6.0
    for report in sweep.values():
        assert report.outcomes == {"completed": CLIENTS}
    rows = [
        [row["n_cpus"], f"{row['serve_wall_cycles']:,}",
         f"{row['speedup_vs_1core']:.2f}x", f"{row['throughput_rps']:,.1f}"]
        for row in payload["scaling"]
    ]
    print("\n" + format_table(
        "SMP fleet scaling, 8 llama forks x 2 requests "
        "(wall cycles = max over cores)",
        ["cores", "serve wall cycles", "speedup", "req/s"], rows))


def test_serial_work_is_conserved_across_widths(sweep):
    """Adding cores overlaps work; it must not change how much there is."""
    serial = {n: r.serve_cycles for n, r in sweep.items()}
    base = serial[1]
    for n, total in serial.items():
        # handshake fast-forwards differ slightly; the work is the same
        # to within 1%
        assert abs(total - base) <= base * 0.01, (n, total, base)


def test_wall_clock_bounded_by_busiest_core(sweep):
    for n, report in sweep.items():
        busy = report.core_busy_cycles
        assert len(busy) == n
        assert report.serve_wall_cycles >= max(busy)
        # no width serves faster than perfect overlap would allow
        assert report.serve_wall_cycles * n >= report.serve_cycles * 0.99


def test_smp_digests_are_deterministic(benchmark):
    def twice():
        a, _ = run_fleet(**LLAMA_FLEET_PARAMS)
        b, _ = run_fleet(**LLAMA_FLEET_PARAMS)
        return a, b

    a, b = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()

"""Record the benchmark's run-to-run noise.

    python3 perfbench/noise.py

Runs ``run.py --trace 0`` once per (set, workload, seed), one process at a
time, for the ``run_seconds`` that ``BENCHMARK.json`` fixes: :data:`SETS`
sets of :data:`RUNS` runs on every workload, each run with its own seed.
For every end-to-end metric it stores each set's values, median, quartiles
and spread (the interquartile range over the median, with the quartiles
from ``statistics.quantiles(values, n=4)``), and the shift of the last
set's median from the first's. The bounds in ``BENCHMARK.json`` are set
against these figures. The record is written to ``perfbench/noise.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    record = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "runs": RUNS, "sets": SETS, "seconds": SECONDS, "workloads": {},
    }
    for workload in WORKLOADS:
        sets = []
        for k in range(SETS):
            seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
            results = [run_once(workload, seed) for seed in seeds]
            sets.append({
                name: summarize([r["metrics"][name]["value"]
                                 for r in results])
                for name in results[0]["metrics"]})
        shift = {name: sets[-1][name]["median"] / stats["median"] - 1
                 if stats["median"] else 0.0
                 for name, stats in sets[0].items()}
        record["workloads"][workload] = {"sets": sets, "shift": shift}
        for name in shift:
            spreads = " ".join(f"{s[name]['spread']:.4f}" for s in sets)
            print(f"{workload:16} {name:20} median "
                  f"{sets[0][name]['median']:12.4f} spread {spreads} "
                  f"shift {shift[name]:+.4f}", file=sys.stderr)
    (HERE / "noise.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

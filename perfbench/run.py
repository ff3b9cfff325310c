"""Repository benchmark: host and simulated cost of serving on the simulator.

    python3 perfbench/run.py --workload llama-fleet --seed 1 --seconds 25 --trace 0

Runs one workload (``llama-fleet``, ``certified-churn`` or
``sandboxed-isa``; see ``workloads.py``) in this interpreter, so the peak
RSS is that workload's alone. Inputs come from ``--seed``. One call to the
public ``run_fleet`` with the same spec first checks the composition (and
warms the interpreter's caches); then a fixed number of rounds with
identical inputs runs: ``--seconds`` over the workload's nominal round time
(:data:`ROUND_S`), at least three. The count never depends on how fast the
host happens to be, so two runs take their fastest repetitions over the
same number of rounds.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` — host seconds from machine construction to the first
  submitted request, the fastest round's;
* ``host_ms_per_req`` — host milliseconds per served request in the serve
  phase (on certified-churn including issuing and verifying the
  certificate), summed over steps from each step's fastest repetition
  (see ``workloads.fastest``);
* ``sim_kcycles_per_req`` — simulated wall kilocycles per request;
* ``peak_rss_mib`` — the process's peak resident set.

Host times use the fastest repetition rather than a median because the
host is shared: neighbours slow whole rounds by up to half, in episodes
that flip within a second and last minutes, which moves medians of whole
rounds by 40% between runs. Simulated metrics repeat exactly.

``--trace 1`` alternates untraced rounds with rounds under the per-layer
wrapper table (``layers.py``), half as many pairs as an untraced run has
rounds, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs are checked
after the timed windows: every response against a reference computed
outside the simulator, every session completed, every certificate
verified offline against the published golden values, the plane ledger
conserved, and every round (and the ``run_fleet`` call) ending in the same
audit head and cycle count.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MIN_ROUNDS = 3

#: host seconds of one untraced round on the reference host (x86_64,
#: 2 vCPUs, CPython 3.11), which sizes a run's fixed round count
ROUND_S = {"llama-fleet": 2.5, "certified-churn": 2.5, "sandboxed-isa": 1.6}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed)
    reference = workload.parity()
    count = max(MIN_ROUNDS, round(args.seconds / ROUND_S[args.workload]))
    if args.trace:
        count = max(MIN_ROUNDS, count // 2)
    rounds, traced = [], []
    for _ in range(count):
        rounds.append(workload.round(workloads.Probe()))
        if args.trace:
            traced.append(layers.traced_round(workload))

    every = rounds + [r for r, _ in traced]
    fingerprints = {r.fingerprint for r in every}
    correct = (len(fingerprints) == 1
               and reference in (None, *fingerprints)
               and len({r.wall_cycles for r in every}) == 1
               and all(r.conserved for r in every)
               and not any(r.failed for r in every))
    if args.trace:
        metrics = {name: (value, layers.METRICS[name]) for name, value in
                   layers.summarize(rounds, traced).items()}
    else:
        first = rounds[0]
        metrics = {
            "setup_s": (min(r.setup_s for r in rounds), "s"),
            "host_ms_per_req": (workloads.host_ms_per_req(rounds), "ms"),
            "sim_kcycles_per_req": (
                first.wall_cycles / 1000 / first.requests, "kcycles"),
            "peak_rss_mib": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

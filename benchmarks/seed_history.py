"""Seed and extend ``BENCH_history.jsonl`` — the perf-trajectory log.

Two modes:

* ``python benchmarks/seed_history.py`` (no flags) — **seed**: convert
  the committed ``BENCH_*.json`` artifacts into provenance records (one
  per artifact, simulated fields only) and append one full plane-ledger
  record for the cheap ``fleet-smoke`` bench (min-of-3 host timing).
  Idempotent per bench name: re-seeding skips names already present.
* ``python benchmarks/seed_history.py --bench fleet-smoke --append`` —
  **append**: re-run the named bench (min-of-3) and append a fresh
  record. The CI ``perf-gate`` steps do this on every push, then run
  ``python -m repro.obs gate`` so the newest record is compared against
  its committed predecessor: any simulated drift (cycles, plane totals,
  digest) fails the build; host-second regressions past the threshold
  warn (``--warn-only``) because CI machines are noisy and heterogeneous.

Host timing here is deliberate and lives outside ``src/repro`` — the
D1 wall-clock lint does not govern benchmarks.
"""

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.fleet import run_fleet                      # noqa: E402
from repro.fleet.goldens import SMP_PARAMS             # noqa: E402
from repro.obs.ledger import (                         # noqa: E402
    append_history,
    history_entry,
    load_history,
)

HISTORY = _ROOT / "BENCH_history.jsonl"

#: timing rounds per arm; each bench keeps its fastest round
ROUNDS = 3

#: the cheap deterministic fleet the perf gate replays on every push
#: (the SMP-pinned helloworld fleet on 2 cores)
BENCHES = {"fleet-smoke": dict(SMP_PARAMS, n_cpus=2)}


def run_bench(name: str) -> dict:
    """Min-of-N run of one named bench; returns its history entry."""
    params = BENCHES[name]
    best = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        report, system = run_fleet(**params)
        host = time.perf_counter() - t0
        if best is None or host < best[2]:
            best = (report, system, host)
    report, system, host = best
    return history_entry(
        name, report.ledger, digest=report.digest(),
        host_seconds={"total": host},
        meta={k: v for k, v in params.items()
              if isinstance(v, (int, float, str))})


def seed_from_artifacts() -> list[dict]:
    """Provenance records from the committed ``BENCH_*.json`` artifacts.

    These carry whatever simulated evidence the artifact pinned (cycles,
    digests) with no plane breakdown — they anchor the trajectory's
    starting point; the gate only ever compares same-name pairs, so a
    lone provenance record never produces a verdict by itself.
    """
    entries = []

    path = _ROOT / "BENCH_sim_speed.json"
    if path.exists():
        payload = json.loads(path.read_text())
        micro, fleet = payload["cpu_bound"], payload["fleet"]
        entries.append({
            "bench": "artifact:sim-speed-micro",
            "cycles": micro["cycles"], "wall_cycles": micro["cycles"],
            "planes": {}, "digest": "",
            "host_seconds": {"cache_off": micro["host_seconds_off"],
                             "cache_on": micro["host_seconds_on"]},
            "meta": {"source": "BENCH_sim_speed.json",
                     "speedup": micro["speedup"]},
        })
        entries.append({
            "bench": "artifact:sim-speed-fleet",
            "cycles": fleet["total_cycles"],
            "wall_cycles": fleet["serve_wall_cycles"],
            "planes": {}, "digest": fleet["digest"],
            "host_seconds": {"cache_off": fleet["host_seconds_off"],
                             "cache_on": fleet["host_seconds_on"]},
            "meta": {"source": "BENCH_sim_speed.json",
                     "speedup": fleet["speedup"]},
        })

    path = _ROOT / "BENCH_obs_overhead.json"
    if path.exists():
        payload = json.loads(path.read_text())
        on = payload.get("obs_on", {})
        if on:
            entries.append({
                "bench": "artifact:obs-overhead",
                "cycles": on.get("total_cycles", 0),
                "wall_cycles": on.get("serve_wall_cycles", 0),
                "planes": {}, "digest": on.get("digest", ""),
                "host_seconds": {"total": on.get("host_seconds", 0.0)},
                "meta": {"source": "BENCH_obs_overhead.json"},
            })

    path = _ROOT / "BENCH_certs.json"
    if path.exists():
        payload = json.loads(path.read_text())
        entries.append({
            "bench": "artifact:certs",
            "cycles": 0, "wall_cycles": 0,
            "planes": {}, "digest": payload.get("digest_on", ""),
            "host_seconds": {
                "certs_off": payload.get("host_seconds_off", 0.0),
                "certs_on": payload.get("host_seconds_on", 0.0)},
            "meta": {"source": "BENCH_certs.json",
                     "certs_issued": payload.get("certs_issued", 0)},
        })

    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default=None, choices=sorted(BENCHES),
                        help="bench to run (with --append)")
    parser.add_argument("--append", action="store_true",
                        help="run the bench and append a fresh record "
                             "(skip artifact seeding)")
    parser.add_argument("--history", default=str(HISTORY),
                        help="history file (default: BENCH_history.jsonl)")
    args = parser.parse_args(argv)
    history_path = Path(args.history)

    if args.append:
        if not args.bench:
            parser.error("--append requires --bench")
        entry = run_bench(args.bench)
        append_history(history_path, entry)
        print(f"appended {args.bench}: cycles={entry['cycles']:,} "
              f"wall={entry['wall_cycles']:,} "
              f"host={entry['host_seconds']['total']:.3f}s "
              f"-> {history_path}")
        return 0

    existing = {e.get("bench") for e in load_history(history_path)} \
        if history_path.exists() else set()
    appended = 0
    for entry in seed_from_artifacts():
        if entry["bench"] in existing:
            continue
        append_history(history_path, entry)
        appended += 1
    for name in sorted(BENCHES):
        if name in existing:
            continue
        entry = run_bench(name)
        append_history(history_path, entry)
        appended += 1
    print(f"seeded {appended} record(s) -> {history_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

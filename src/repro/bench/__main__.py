"""Command-line harness: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                  # everything (a few minutes)
    python -m repro.bench table3 fig9      # selected experiments
    python -m repro.bench --list
    python -m repro.bench fig9 --scale 0.25

Each experiment renders the ``results.json`` section that
:mod:`repro.bench.export` collects and the ``benchmarks/`` pytest suite
checks; nothing here recomputes a result.
"""

from __future__ import annotations

import argparse
import sys

from .export import (collect_fig8, collect_fig9_table6, collect_fig10,
                     collect_table3, collect_table4)
from .report import format_table, mib, pct
from .servers import FILE_SIZES


def render_table3(data: dict) -> str:
    emc = data["emc_measured"]
    rows = [["EMC", emc, "1.00x"]]
    for label, key in (("SYSCALL", "syscall"), ("TDCALL", "tdcall"),
                       ("VMCALL", "vmcall")):
        rows.append([label, data[key], f"{data[key] / emc:.2f}x"])
    return format_table("Table 3: privilege transitions (cycles)",
                        ["call", "cycles", "vs EMC"], rows)


def render_table4(data: dict) -> str:
    rows = [[op, c["native"], c["erebor"]] for op, c in data.items()]
    return format_table("Table 4: privileged operations (cycles)",
                        ["op", "native", "erebor"], rows)


def render_fig8(data: dict) -> str:
    rows = [[name, f"{r['native_cycles_per_op']:.0f}",
             f"{r['erebor_cycles_per_op']:.0f}", f"{r['overhead']:.2f}x",
             f"{r['emc_per_op']:.1f}"] for name, r in data.items()]
    return format_table("Figure 8: LMBench", ["bench", "native", "erebor",
                                              "overhead", "EMC/op"], rows)


def render_fig9(data: dict) -> str:
    rows = []
    for name, entry in data["workloads"].items():
        ovh = entry["overhead_vs_native"]
        rows.append([name, pct(ovh["libos"]), pct(ovh["mmu"]),
                     pct(ovh["exit"]), pct(ovh["erebor"])])
    rows.append(["geomean", "-", "-", "-", pct(data["geomean_full_erebor"])])
    return format_table("Figure 9: workload overhead vs native",
                        ["workload", "LibOS", "MMU", "Exit", "full"], rows)


def render_table6(data: dict) -> str:
    rows = []
    for name, entry in data["workloads"].items():
        t6 = entry["table6"]
        exits = t6["pf_per_sec"] + t6["timer_per_sec"] + t6["ve_per_sec"]
        rows.append([name, f"{t6['pf_per_sec']:.0f}",
                     f"{t6['timer_per_sec']:.0f}", f"{t6['ve_per_sec']:.0f}",
                     f"{exits:.0f}", f"{t6['emc_per_sec'] / 1000:.1f}k",
                     f"{t6['run_seconds']:.2f}s",
                     mib(t6["confined_bytes"]),
                     mib(t6["common_bytes"]) if t6["common_bytes"] else "-",
                     pct(t6["init_overhead"])])
    return format_table("Table 6: execution statistics",
                        ["program", "#PF/s", "#Timer/s", "#VE/s", "exits/s",
                         "EMC/s", "time", "conf", "com", "init ovh"], rows)


def render_fig10(data: dict) -> str:
    ssh, nginx = data["ssh"], data["nginx"]
    rows = [[f"{size // 1024}K",
             f"{ssh['relative_throughput'][str(size)]:.3f}",
             f"{nginx['relative_throughput'][str(size)]:.3f}"]
            for size in FILE_SIZES]
    rows.append(["avg loss", pct(ssh["average_reduction"]),
                 pct(nginx["average_reduction"])])
    return format_table("Figure 10: server relative throughput",
                        ["size", "ssh", "nginx"], rows)


def _fig9_table6(args) -> dict:
    return collect_fig9_table6(args.scale)


#: experiment -> (collector of its results.json section, renderer); fig9
#: and table6 share one collector, so one invocation runs the matrix once
EXPERIMENTS = {
    "table3": (lambda args: collect_table3(), render_table3),
    "table4": (lambda args: collect_table4(), render_table4),
    "fig8": (lambda args: collect_fig8(args.iterations), render_fig8),
    "fig9": (_fig9_table6, render_fig9),
    "table6": (_fig9_table6, render_table6),
    "fig10": (lambda args: collect_fig10(args.requests), render_fig10),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help=f"subset of {sorted(EXPERIMENTS)} (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (default 0.5)")
    parser.add_argument("--iterations", type=int, default=150,
                        help="LMBench iterations (default 150)")
    parser.add_argument("--requests", type=int, default=16,
                        help="server requests per file size (default 16)")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    sections: dict = {}
    for name in selected:
        collect, render = EXPERIMENTS[name]
        if collect not in sections:
            sections[collect] = collect(args)
        print(render(sections[collect]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

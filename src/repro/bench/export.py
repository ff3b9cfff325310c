"""The paper's experiments, one ``results.json`` section each.

Every ``collect_*`` function runs one experiment and returns its section;
Fig. 9 and Table 6 share one section, derived by :func:`fig9_table6`
from a single ``{workload: {setting: RunResult}}`` matrix and read only
from the clock's event ledger. ``python -m repro.bench`` renders these
sections as tables and the ``benchmarks/`` band checks assert on them, so
each paper result is computed in exactly one place.
``collect_results`` gathers every section into one nested dict and
``export_json`` writes it to disk: CI compares a fresh export against the
committed ``results.json`` to catch calibration drift, and the figures
can be re-plotted from the JSON without re-simulation.

    python -c "from repro.bench.export import export_json; \
               export_json('results.json', scale=0.5)"
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .lmbench import LmbenchSuite
from .runner import SETTINGS, RunResult, WorkloadRunner
from .servers import FILE_SIZES, ServerBench


def collect_table3() -> dict:
    from repro.core.emc import EmcCall
    from repro.core.microrig import GateRig
    from repro.hw.cycles import Cost
    emc = GateRig().run_emc(int(EmcCall.NOP))
    return {
        "emc_measured": emc,
        "syscall": Cost.SYSCALL_ROUND_TRIP,
        "tdcall": Cost.TDCALL_ROUND_TRIP,
        "vmcall": Cost.VMCALL_ROUND_TRIP,
    }


def collect_table4() -> dict:
    from repro.hw.cycles import Cost
    return {
        "MMU": {"native": Cost.PTE_WRITE_NATIVE, "erebor": Cost.EREBOR_MMU},
        "CR": {"native": Cost.CR_WRITE_NATIVE, "erebor": Cost.EREBOR_CR},
        "SMAP": {"native": Cost.STAC_CLAC_NATIVE, "erebor": Cost.EREBOR_SMAP},
        "IDT": {"native": Cost.LIDT_NATIVE, "erebor": Cost.EREBOR_IDT},
        "MSR": {"native": Cost.WRMSR_SLOW_NATIVE, "erebor": Cost.EREBOR_MSR},
        "GHCI": {"native": Cost.TDREPORT_NATIVE, "erebor": Cost.EREBOR_GHCI},
    }


def collect_fig8(iterations: int = 120) -> dict:
    return {
        r.name: {
            "native_cycles_per_op": r.native_cycles,
            "erebor_cycles_per_op": r.erebor_cycles,
            "overhead": r.ratio,
            "emc_per_op": r.emc_per_op,
        }
        for r in LmbenchSuite(iterations=iterations).run_all()
    }


def fig9_table6(matrix: dict[str, dict[str, RunResult]]) -> dict:
    """The Fig. 9 / Table 6 section of a ``{workload: {setting: run}}``
    matrix: runtime overhead of every setting vs native, and the full
    Erebor run's Table 6 rates from the clock's event ledger."""
    out: dict = {"workloads": {}, "settings": list(SETTINGS)}
    for name, runs in matrix.items():
        native = runs["native"]
        erebor = runs["erebor"]
        out["workloads"][name] = {
            "overhead_vs_native": {
                setting: result.run_seconds / native.run_seconds - 1.0
                for setting, result in runs.items()},
            "table6": {
                "pf_per_sec": erebor.rate("page_fault"),
                "timer_per_sec": erebor.rate("timer_interrupt"),
                "ve_per_sec": erebor.rate("ve"),
                "emc_per_sec": erebor.rate("emc"),
                "sandbox_exit_per_sec": erebor.rate("sandbox_exit"),
                "run_seconds": erebor.run_seconds,
                "confined_bytes": erebor.confined_bytes,
                "common_bytes": erebor.common_bytes,
                "init_overhead": (erebor.init_seconds / native.init_seconds
                                  - 1.0),
            },
        }
    full = [entry["overhead_vs_native"]["erebor"]
            for entry in out["workloads"].values()]
    out["geomean_full_erebor"] = math.exp(
        sum(math.log(1 + v) for v in full) / len(full)) - 1.0
    return out


def collect_fig9_table6(scale: float = 0.5, seed: int = 2025) -> dict:
    return fig9_table6(WorkloadRunner(scale=scale, seed=seed).run_matrix())


def collect_fig10(requests: int = 12) -> dict:
    bench = ServerBench(requests_per_size=requests)
    out = {}
    for kind in ("ssh", "nginx"):
        series = bench.run_series(kind)
        out[kind] = {
            "relative_throughput": {
                str(size): series.relative_throughput(size)
                for size in FILE_SIZES
            },
            "average_reduction": series.average_reduction(),
            "max_reduction": series.max_reduction(),
        }
    return out


def collect_results(*, scale: float = 0.5, seed: int = 2025) -> dict:
    """Run the whole evaluation; returns the nested results dict."""
    return {
        "meta": {"scale": scale, "seed": seed,
                 "paper": "Erebor (EuroSys 2025)"},
        "table3": collect_table3(),
        "table4": collect_table4(),
        "fig8": collect_fig8(),
        "fig9_table6": collect_fig9_table6(scale, seed),
        "fig10": collect_fig10(),
    }


def export_json(path: str | Path, **kwargs) -> dict:
    """Collect everything and write it as JSON; returns the dict."""
    results = collect_results(**kwargs)
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True))
    return results

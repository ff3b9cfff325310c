"""Table 6 — program execution statistics under full Erebor.

Regenerates the columns: per-second sandbox exit rates (#PF / #Timer /
#VE / total), EMC rate, data-processing time, confined and common memory,
and the one-time initialization overhead vs native. Paper bands: exits
2.2-4.4k/s, EMC tens of k/s, init overhead 11.5-52.7%.

Every column is read from the Table 6 section that
``repro.bench.export.fig9_table6`` derives from the workload matrix — the
same section ``results.json`` carries and ``python -m repro.bench
table6`` renders. Its rates are the clock's event ledger over each
measurement window (``RunResult.rate``).
"""

from repro.bench.__main__ import render_table6


def table6_rows(section) -> dict:
    return {name: entry["table6"]
            for name, entry in section["workloads"].items()}


def exits_per_sec(row) -> float:
    return row["pf_per_sec"] + row["timer_per_sec"] + row["ve_per_sec"]


def test_print_table6(benchmark, workload_section):
    """Paper values (#PF/s, #Timer/s, #VE/s, exits/s, EMC/s, confined MB,
    common MB, init overhead):

    ========= ==== ===== ==== ==== ====== ==== ==== =====
    program   #PF  Timer #VE  exit EMC    conf com  init
    ========= ==== ===== ==== ==== ====== ==== ==== =====
    llama.cpp 1800 900   1700 4400 46900  501  4096 52.7%
    yolo      1200 1000  1300 3500 77600  757  132  13.3%
    drugbank  500  500   1200 2200 87600  814  400  28.5%
    graphchi  800  2700  700  4200 40900  1340 0    36.8%
    unicorn   700  2300  900  3900 39500  1254 0    31.2%
    ========= ==== ===== ==== ==== ====== ==== ==== =====
    """
    print("\n" + benchmark.pedantic(lambda: render_table6(workload_section),
                                    rounds=1, iterations=1))


def test_exit_rates_in_paper_band(benchmark, workload_section):
    rows = benchmark.pedantic(lambda: table6_rows(workload_section),
                              rounds=1, iterations=1)
    for name, t6 in rows.items():
        total = exits_per_sec(t6)
        assert 1500 <= total <= 7000, (name, total)   # paper: 2.2k-4.4k


def test_emc_rates_tens_of_thousands(benchmark, workload_section):
    rows = benchmark.pedantic(lambda: table6_rows(workload_section),
                              rounds=1, iterations=1)
    for name, t6 in rows.items():
        emc = t6["emc_per_sec"]
        assert 15_000 <= emc <= 120_000, (name, emc)  # paper: 39.5k-87.6k


def test_init_overhead_band(benchmark, workload_section):
    """Paper: one-time initialization costs 11.5-52.7% over native."""
    rows = benchmark.pedantic(lambda: table6_rows(workload_section),
                              rounds=1, iterations=1)
    ovh = {name: t6["init_overhead"] for name, t6 in rows.items()}
    assert all(0.08 <= v <= 0.60 for v in ovh.values()), ovh
    assert max(ovh, key=ovh.get) == "llama.cpp"  # biggest prefault volume


def test_memory_columns_match_manifests(benchmark, workload_section):
    from repro.apps.base import workload as make_workload
    rows = benchmark.pedantic(lambda: table6_rows(workload_section),
                              rounds=1, iterations=1)
    for name, t6 in rows.items():
        prof = make_workload(name).profile
        assert t6["confined_bytes"] >= prof.heap_bytes
        assert t6["common_bytes"] == sum(s.size for s in prof.common)

"""Figure 9 — runtime overhead of real-world workloads (+Table 5 inputs).

Regenerates the five-workload bar groups: Native-relative runtime under
LibOS-only, Erebor-LibOS-MMU, Erebor-LibOS-Exit, and full Erebor. Shape
targets from the paper: full-Erebor overheads span ~4.5-13.2% with
llama.cpp worst (13.15%) and a geometric mean of ~8.1%; LibOS-only stays
small (1.7% geomean) except llama's sync-heavy 4.5%.
"""

from repro.bench.__main__ import render_fig9


def overheads(section, setting) -> dict:
    return {name: entry["overhead_vs_native"][setting]
            for name, entry in section["workloads"].items()}


def test_print_fig9(benchmark, workload_section):
    """Paper: full-Erebor geomean 8.1%, range 4.5-13.2%, llama.cpp worst
    at 13.15%."""
    print("\n" + benchmark.pedantic(lambda: render_fig9(workload_section),
                                    rounds=1, iterations=1))


def test_full_erebor_range_matches_paper(benchmark, workload_section):
    full = benchmark.pedantic(lambda: overheads(workload_section, "erebor"),
                              rounds=1, iterations=1)
    assert 0.03 <= min(full.values()) <= 0.06        # paper floor 4.5%
    assert 0.11 <= max(full.values()) <= 0.15        # paper ceiling 13.2%
    assert max(full, key=full.get) == "llama.cpp"    # llama is worst
    geomean = workload_section["geomean_full_erebor"]
    assert 0.06 <= geomean <= 0.10                   # paper 8.1%


def test_llama_libos_overhead_from_sync(benchmark, workload_section):
    libos = benchmark.pedantic(lambda: overheads(workload_section, "libos"),
                               rounds=1, iterations=1)
    assert 0.035 <= libos["llama.cpp"] <= 0.06       # paper: 4.5%
    others = [v for n, v in libos.items() if n != "llama.cpp"]
    assert all(v < 0.02 for v in others)


def test_ablations_compose(benchmark, workload_section):
    """MMU-only and Exit-only each sit between LibOS-only and full."""
    data = benchmark.pedantic(lambda: workload_section, rounds=1,
                              iterations=1)
    for entry in data["workloads"].values():
        ovh = entry["overhead_vs_native"]
        lib, mmu, exit_, full = (ovh["libos"], ovh["mmu"], ovh["exit"],
                                 ovh["erebor"])
        assert lib <= mmu <= full + 0.005
        assert lib <= exit_ <= full + 0.005


def test_print_overhead_decomposition(benchmark, workload_matrix):
    """§9.2 discussion, programmatically: where each workload's full-
    Erebor overhead comes from (EMC gates, state masking, spin sync...)."""
    from repro.bench.analysis import decompose

    def build():
        tables = []
        for name, runs in workload_matrix.items():
            tables.append(decompose(runs["native"], runs["erebor"]).table())
        return "\n\n".join(tables)

    print("\n" + benchmark.pedantic(build, rounds=1, iterations=1))


def test_llama_decomposition_shows_spin_sync(benchmark, workload_matrix):
    from repro.bench.analysis import decompose
    breakdown = benchmark.pedantic(
        lambda: decompose(workload_matrix["llama.cpp"]["native"],
                          workload_matrix["llama.cpp"]["erebor"]),
        rounds=1, iterations=1)
    # the paper: llama's LibOS-only overhead (sync) is the outlier
    assert breakdown.by_mechanism["LibOS spin sync"] >= 0.03
    assert breakdown.by_mechanism["EMC gates"] > 0


def test_outputs_identical_across_settings(benchmark, workload_matrix):
    """The sandbox changes cost, never results."""
    data = benchmark.pedantic(lambda: workload_matrix, rounds=1, iterations=1)
    for name, runs in data.items():
        outputs = {setting: r.output for setting, r in runs.items()}
        assert len(set(outputs.values())) == 1, name

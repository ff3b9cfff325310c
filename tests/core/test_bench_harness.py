"""Harness tests: runner settings, lmbench suite, server rigs, baselines."""

import pytest

from repro.baselines import (
    EnclaveAccessError,
    EnclaveBaselineSystem,
    erebor_footprint,
    paper_scale_comparison,
    unikernel_footprint,
)
from repro.bench.lmbench import LmbenchSuite
from repro.bench.report import format_table, pct, ratio
from repro.bench.runner import SETTINGS, WorkloadRunner
from repro.bench.servers import ServerBench


# --- runner -----------------------------------------------------------------

def test_runner_rejects_unknown_setting():
    with pytest.raises(ValueError):
        WorkloadRunner().run("helloworld", "bogus")


def test_runner_all_settings_helloworld():
    runner = WorkloadRunner(scale=1.0)
    results = runner.run_all_settings("helloworld")
    assert set(results) == set(SETTINGS)
    outputs = {r.output for r in results.values()}
    assert outputs == {b"A" * 10}
    for r in results.values():
        assert r.run_seconds > 0 and r.init_seconds > 0


def test_erebor_run_counts_emcs_native_does_not():
    runner = WorkloadRunner(scale=1.0)
    native = runner.run("helloworld", "native")
    erebor = runner.run("helloworld", "erebor")
    assert native.events.get("emc", 0) == 0
    assert erebor.events.get("emc", 0) > 0


def test_run_result_rates():
    runner = WorkloadRunner(scale=1.0)
    r = runner.run("helloworld", "erebor")
    assert r.rate("emc") == r.events["emc"] / r.run_seconds


# --- lmbench ------------------------------------------------------------------

@pytest.mark.parametrize("name", ("null", "pagefault"))
def test_lmbench_single_benches(name):
    suite = LmbenchSuite(iterations=30)
    native, emc_native = suite.run_bench(name, "native")
    erebor, emc_erebor = suite.run_bench(name, "erebor")
    assert erebor > native
    assert emc_native == 0
    if name == "pagefault":
        assert emc_erebor >= 3


def test_lmbench_names_cover_fig8():
    assert len(LmbenchSuite.BENCH_NAMES) >= 7


# --- servers -------------------------------------------------------------------

def test_server_point_throughput_positive():
    bench = ServerBench(requests_per_size=4)
    point = bench.run_point("nginx", "native", 4096)
    assert point.bytes_per_second > 0
    assert point.requests == 4


def test_server_erebor_slower_than_native():
    bench = ServerBench(requests_per_size=4)
    native = bench.run_point("ssh", "native", 1024)
    erebor = bench.run_point("ssh", "erebor", 1024)
    assert erebor.bytes_per_second < native.bytes_per_second


def test_server_caps_requests_for_big_files():
    bench = ServerBench(requests_per_size=64)
    point = bench.run_point("nginx", "native", 16 * 1024 * 1024)
    assert point.requests < 64


# --- enclave baseline -------------------------------------------------------------

def test_enclave_blocks_os_reads_only():
    system = EnclaveBaselineSystem("veil")
    enclave = system.create_enclave()
    enclave.store_secret(b"SECRET")
    with pytest.raises(EnclaveAccessError):
        system.os_read_memory(enclave.frames[0])
    # non-enclave frames are fair game for the OS
    other = system.machine.phys.alloc_frame("task:9")
    system.os_read_memory(other)


def test_enclave_leaks_via_syscalls():
    system = EnclaveBaselineSystem("nestedsgx")
    enclave = system.create_enclave()
    system.enclave_syscall_write(enclave, "/tmp/out", b"EXFIL-DATA")
    assert b"EXFIL-DATA" in system.machine.vmm.observed_blob()


def test_enclave_requires_infra_changes():
    assert EnclaveBaselineSystem.requires_hypervisor_changes
    assert EnclaveBaselineSystem.requires_paravisor_changes


# --- unikernel footprints --------------------------------------------------------

def test_footprint_arithmetic():
    uni = unikernel_footprint(4, confined_bytes=100, common_bytes=1000,
                              base_bytes=10)
    ere = erebor_footprint(4, confined_bytes=100, common_bytes=1000,
                           base_bytes=10)
    assert uni == 4 * 1110
    assert ere == 400 + 1000 + 10
    assert ere < uni


def test_paper_scale_headline_89pct():
    cmp = paper_scale_comparison(8)
    assert 0.75 < cmp.reduction < 0.92


# --- report helpers ------------------------------------------------------------

def test_format_table_alignment():
    table = format_table("T", ["a", "bb"], [["x", 1], ["yyyy", 22]])
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "yyyy" in table and "22" in table


def test_pct_ratio_format():
    assert pct(0.1315) == "13.2%"
    assert ratio(3.8) == "3.80x"

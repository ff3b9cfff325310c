"""SMP fleet scheduling: per-CPU clocks, determinism, and scaling.

The scheduler interleaves one request per core each round, charging all
request work to the executing core's cycle counter; wall-clock time is
the max over per-CPU clocks. These tests pin the clock semantics, the
per-core-count determinism contract (same seed + same ``n_cpus`` →
byte-identical report, with a pinned digest per core count), and the
throughput scaling the whole design exists to deliver, on helloworld and on the seeded llama fleet
at 1, 2, 4 and 8 cores.
"""

import pytest

from repro.fleet import run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS, SMP_PARAMS, SMP_PINNED
from repro.hw.cycles import CycleClock

# --------------------------------------------------------------------------- #
# per-CPU clock semantics (unit level)
# --------------------------------------------------------------------------- #

def test_serial_charges_advance_every_core():
    clock = CycleClock()
    clock.ensure_cpus(4)
    clock.charge(100, "boot")
    assert clock.per_cpu == [100, 100, 100, 100]
    assert clock.wall_cycles == 100
    assert clock.cycles == 100


def test_on_cpu_charges_land_on_one_core_only():
    clock = CycleClock()
    clock.ensure_cpus(2)
    with clock.on_cpu(0):
        clock.charge(300, "work")
    with clock.on_cpu(1):
        clock.charge(100, "work")
    # parallel work overlaps: wall is the max, not the sum
    assert clock.per_cpu == [300, 100]
    assert clock.wall_cycles == 300
    assert clock.cycles == 400            # serial total keeps its meaning
    assert clock.cpu_busy(0) == 300
    assert clock.cpu_busy(1) == 100


def test_serial_section_barriers_after_parallel_work():
    clock = CycleClock()
    clock.ensure_cpus(2)
    with clock.on_cpu(0):
        clock.charge(500)
    clock.charge(10)                      # serial: barrier, then advance
    assert clock.per_cpu == [510, 510]
    assert clock.wall_cycles == 510


def test_nested_cpu_scopes_restore_the_outer_core():
    clock = CycleClock()
    clock.ensure_cpus(3)
    with clock.on_cpu(1):
        with clock.on_cpu(2):
            clock.charge(50)
        clock.charge(5)
    assert clock.cpu_busy(2) == 50
    assert clock.cpu_busy(1) == 5


def test_per_cpu_event_ledgers_are_private():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.count("emc", 3)
    with clock.on_cpu(1):
        clock.count("emc", 1)
    clock.count("emc")                    # serial lane, not a core's
    assert clock.cpu_events(0)["emc"] == 3
    assert clock.cpu_events(1)["emc"] == 1
    assert clock.events["emc"] == 5


def test_late_joining_core_starts_at_the_wall():
    clock = CycleClock()
    clock.charge(1000, "boot")            # single-core era
    clock.ensure_cpus(2)
    assert clock.per_cpu == [1000, 1000]
    with clock.on_cpu(1):
        clock.charge(1)
    assert clock.wall_cycles == 1001


def test_single_core_wall_equals_serial_cycles():
    clock = CycleClock()
    clock.charge(123)
    with clock.on_cpu(0):
        clock.charge(77)
    assert clock.wall_cycles == clock.cycles == 200


def test_negative_charge_still_rejected():
    clock = CycleClock()
    with pytest.raises(ValueError):
        clock.charge(-1)


# --------------------------------------------------------------------------- #
# fleet determinism per core count
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("n_cpus", sorted(SMP_PINNED))
def test_pinned_digest_per_core_count(n_cpus):
    report, _ = run_fleet(n_cpus=n_cpus, **SMP_PARAMS)
    assert report.digest() == SMP_PINNED[n_cpus]


def test_smp_repeats_are_byte_identical():
    a, _ = run_fleet(n_cpus=4, **SMP_PARAMS)
    b, _ = run_fleet(n_cpus=4, **SMP_PARAMS)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()


def test_core_count_changes_the_wall_but_not_the_outputs():
    r1, _ = run_fleet(n_cpus=1, **SMP_PARAMS)
    r4, _ = run_fleet(n_cpus=4, **SMP_PARAMS)
    # the same sessions complete with the same results...
    assert r1.outcomes == r4.outcomes
    assert r1.requests_served == r4.requests_served
    # ...but the wall clock contracts and the digests differ (core
    # placement is part of the report)
    assert r4.serve_wall_cycles < r1.serve_wall_cycles
    assert r1.digest() != r4.digest()


# --------------------------------------------------------------------------- #
# scaling behaviour
# --------------------------------------------------------------------------- #

SCALE_PARAMS = dict(workload="helloworld", clients=8, requests=4,
                    pool_size=8, tenants=8, seed=5, scale=1.0)


def test_sessions_spread_across_all_cores():
    report, _ = run_fleet(n_cpus=4, **SCALE_PARAMS)
    cores = sorted({s["core"] for s in report.sessions})
    assert cores == [0, 1, 2, 3]
    # least-loaded placement balances 8 sessions as 2 per core
    per_core = [sum(1 for s in report.sessions if s["core"] == c)
                for c in cores]
    assert per_core == [2, 2, 2, 2]


def test_four_cores_triple_single_core_throughput():
    r1, _ = run_fleet(n_cpus=1, **SCALE_PARAMS)
    r4, _ = run_fleet(n_cpus=4, **SCALE_PARAMS)
    speedup = r1.serve_wall_cycles / r4.serve_wall_cycles
    assert speedup >= 3.0
    assert r4.requests_per_wall_kcycle >= 3.0 * r1.requests_per_wall_kcycle


def test_core_busy_cycles_reported_and_balanced():
    report, _ = run_fleet(n_cpus=4, **SCALE_PARAMS)
    busy = report.core_busy_cycles
    assert len(busy) == 4 and all(b > 0 for b in busy)
    # serve wall can't be smaller than the busiest core's work
    assert report.serve_wall_cycles >= max(busy)
    # balanced load: no core does more than 2x the least-loaded one
    assert max(busy) <= 2 * min(busy)


def test_single_core_run_matches_legacy_serial_accounting():
    report, _ = run_fleet(n_cpus=1, **SMP_PARAMS)
    assert report.n_cpus == 1
    assert report.serve_wall_cycles == report.serve_cycles


# --------------------------------------------------------------------------- #
# scaling on the seeded llama fleet (8 forks x 2 requests, 8-slot pool)
# --------------------------------------------------------------------------- #

#: core count -> floor on wall-clock speedup over one core
LLAMA_SPEEDUP_FLOORS = {2: 1.8, 4: 3.0, 8: 6.0}


@pytest.fixture(scope="module")
def llama_sweep(llama_report):
    return {n: llama_report(n) for n in (1, *LLAMA_SPEEDUP_FLOORS)}


def test_llama_fleet_scales_with_cores(llama_sweep):
    base = llama_sweep[1].serve_wall_cycles
    for n, floor in LLAMA_SPEEDUP_FLOORS.items():
        speedup = base / llama_sweep[n].serve_wall_cycles
        assert speedup >= floor, (n, speedup)
    for report in llama_sweep.values():
        assert report.outcomes == {"completed": LLAMA_FLEET_PARAMS["clients"]}


def test_llama_serial_work_is_conserved_across_widths(llama_sweep):
    """Adding cores overlaps work; it must not change how much there is."""
    base = llama_sweep[1].serve_cycles
    for n, report in llama_sweep.items():
        # handshake fast-forwards differ slightly; the work is the same
        # to within 1%
        assert abs(report.serve_cycles - base) <= base * 0.01, (n, base)


def test_llama_wall_clock_bounded_by_busiest_core(llama_sweep):
    for n, report in llama_sweep.items():
        busy = report.core_busy_cycles
        assert len(busy) == n
        assert report.serve_wall_cycles >= max(busy)
        # no width serves faster than perfect overlap would allow
        assert report.serve_wall_cycles * n >= report.serve_cycles * 0.99


def test_llama_repeats_are_byte_identical(llama_report):
    again, _ = run_fleet(**LLAMA_FLEET_PARAMS)
    first = llama_report(LLAMA_FLEET_PARAMS["n_cpus"])
    assert again.to_json() == first.to_json()
    assert again.digest() == first.digest()

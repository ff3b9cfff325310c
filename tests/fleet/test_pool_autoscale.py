"""Demand-driven pool autoscaling: grow under pressure, shrink when idle.

Unit tests drive :meth:`WarmPool.autoscale` directly with synthetic
queue depths; the end-to-end tests check the scheduler feeds it real
queue pressure and that the whole thing stays deterministic.
"""

from repro.fleet import run_fleet
from repro.fleet.goldens import (
    AUTOSCALE_PARAMS,
    AUTOSCALE_PINNED,
    AUTOSCALE_POOL,
    AUTOSCALE_SCALING,
)
from repro.fleet.pool import (
    IDLE_WATERMARK,
    SHRINK_PATIENCE,
    PoolConfig,
    WarmPool,
)


def autoscale_pool(system, template, **kw):
    defaults = dict(size=1, autoscale=True, max_size=4)
    defaults.update(kw)
    return WarmPool(system, template, PoolConfig(**defaults))


# --------------------------------------------------------------------------- #
# pool unit behaviour
# --------------------------------------------------------------------------- #

def test_grow_forks_ahead_of_the_queue(system, template):
    pool = autoscale_pool(system, template)
    pool.slots[0].busy = True
    # 3 waiting sessions, 0 free slots: fork for all of them
    assert pool.autoscale(queue_depth=3) == 3
    assert len(pool.slots) == 4
    assert pool.grown == 3
    assert len(pool.free_slots()) == 3


def test_grow_is_capped_at_max_size(system, template):
    pool = autoscale_pool(system, template, max_size=2)
    pool.slots[0].busy = True
    assert pool.autoscale(queue_depth=5) == 1
    assert len(pool.slots) == 2
    assert pool.autoscale(queue_depth=5) == 0        # already at ceiling


def test_shrink_waits_out_the_patience_counter(system, template):
    assert (IDLE_WATERMARK, SHRINK_PATIENCE) == (1, 3)
    pool = autoscale_pool(system, template)
    pool.autoscale(queue_depth=4)                    # 1 free + 3 forked
    assert len(pool.slots) == 4
    # idle rounds 1-2: over the watermark but patience not yet exhausted
    pool.autoscale(queue_depth=0)
    pool.autoscale(queue_depth=0)
    assert len(pool.slots) == 4
    # idle round 3: retire one slot, counter resets
    pool.autoscale(queue_depth=0)
    assert len(pool.slots) == 3
    assert pool.retired == 1
    pool.autoscale(queue_depth=0)
    assert len(pool.slots) == 3


def test_queue_pressure_resets_the_idle_counter(system, template):
    pool = autoscale_pool(system, template, max_size=3)
    pool.autoscale(queue_depth=3)                    # 1 free + 2 forked
    assert len(pool.slots) == 3
    pool.autoscale(queue_depth=0)                    # idle round 1
    pool.slots[0].busy = pool.slots[1].busy = pool.slots[2].busy = True
    pool.autoscale(queue_depth=1)                    # burst: counter resets
    pool.slots[0].busy = pool.slots[1].busy = pool.slots[2].busy = False
    pool.autoscale(queue_depth=0)                    # idle round 1 again
    pool.autoscale(queue_depth=0)                    # idle round 2
    assert len(pool.slots) == 3                      # hysteresis held
    pool.autoscale(queue_depth=0)
    assert len(pool.slots) == 2


def test_shrink_never_drops_below_min_size(system, template):
    pool = autoscale_pool(system, template, size=2)
    pool.autoscale(queue_depth=4)
    assert len(pool.slots) == 4
    for _ in range(20):
        pool.autoscale(queue_depth=0)
    assert len(pool.slots) == 2
    assert len(pool.free_slots()) == 2


def test_retire_returns_cma_frames_to_the_monitor(system, template):
    pool = autoscale_pool(system, template)
    free_before = len(system.monitor._cma_pool)
    pool.autoscale(queue_depth=3)                    # 1 free + 2 forked
    # forks are pure CoW (no frames yet); dirty pages in the grown slots
    # so retiring them has real CMA frames to hand back
    from repro.hw.memory import PAGE_SIZE
    for slot in pool.slots[1:]:
        va = slot.instance.runtime.malloc(4 * PAGE_SIZE)
        slot.instance.runtime.touch_range(va, 4 * PAGE_SIZE, write=True)
        assert slot.instance.private_bytes > 0
    assert len(system.monitor._cma_pool) < free_before   # CoW took frames
    for _ in range(2 * SHRINK_PATIENCE):             # one retire per 3
        pool.autoscale(queue_depth=0)
    assert pool.retired == 2
    assert len(pool.slots) == 1
    assert len(system.monitor._cma_pool) == free_before  # frames came back


def test_autoscale_off_is_a_noop(system, template):
    pool = WarmPool(system, template, PoolConfig(size=1))
    assert pool.autoscale(queue_depth=10) == 0
    assert len(pool.slots) == 1
    assert (pool.grown, pool.retired) == (0, 0)


# --------------------------------------------------------------------------- #
# end-to-end: the scheduler drives autoscaling from real queue depth
# --------------------------------------------------------------------------- #

AUTOSCALE_CONFIG = PoolConfig(size=1, autoscale=True, max_size=4)
RUN_PARAMS = dict(workload="helloworld", clients=6, requests=6, pool_size=1,
                  tenants=6, seed=9, scale=1.0, n_cpus=4)


def test_fleet_grows_under_queue_pressure_and_shrinks_back():
    report, system = run_fleet(pool_config=AUTOSCALE_CONFIG, **RUN_PARAMS)
    scaling = report.pool_scaling
    # 6 clients against a 1-slot pool: demand forks up to the ceiling...
    assert scaling["grown"] >= 2
    assert scaling["peak"] == 4
    # ...and the drained pool retires idle slots back toward the floor
    assert scaling["retired"] >= 1
    assert scaling["final"] < scaling["peak"]
    assert report.outcomes == {"completed": 6}


def test_pool_settles_at_min_size_when_demand_stops(system, template):
    pool = autoscale_pool(system, template)
    pool.autoscale(queue_depth=4)                    # burst
    assert len(pool.slots) == 4
    # demand stops: hysteresis drains the pool back to the floor
    for _ in range(20):
        pool.autoscale(queue_depth=0)
    assert len(pool.slots) == pool.config.size == 1
    assert pool.retired == 3


def test_ci_autoscaling_fleet_matches_its_pins():
    report, _ = run_fleet(pool_config=PoolConfig(**AUTOSCALE_POOL),
                          **AUTOSCALE_PARAMS)
    assert report.digest() == AUTOSCALE_PINNED
    assert report.pool_scaling == AUTOSCALE_SCALING


def test_autoscaling_runs_stay_deterministic():
    a, _ = run_fleet(pool_config=AUTOSCALE_CONFIG, **RUN_PARAMS)
    b, _ = run_fleet(pool_config=AUTOSCALE_CONFIG, **RUN_PARAMS)
    assert a.to_json() == b.to_json()
    assert a.pool_scaling == b.pool_scaling


def test_autoscaling_beats_fixed_small_pool_on_wall_clock():
    fixed, _ = run_fleet(**RUN_PARAMS)
    scaled, _ = run_fleet(pool_config=AUTOSCALE_CONFIG, **RUN_PARAMS)
    # same work, but the grown pool admits sessions instead of queueing
    # them behind one slot, so more cores stay busy
    assert scaled.serve_wall_cycles < fixed.serve_wall_cycles

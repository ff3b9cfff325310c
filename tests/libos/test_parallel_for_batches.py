"""Tick-bounded ``parallel_for`` batches against per-chunk stepping.

Twin machines boot a LibOS the same way and run the same
``ThreadPool.parallel_for``: one twin with the pool's batches, the other
with :func:`reference_parallel_for`, which steps every chunk through
``advance`` + ``sync`` as the pool did before batching. The start is
placed so that one chunk ends exactly ``delta`` cycles past a timer tick
boundary, and chunks straddle several ticks. Everything must come out
identical: the clock's ledgers in insertion order, ``per_cpu``, the cycle
of every tick, ``utime_cycles``, :class:`SyncStats`, the trace, the
Prometheus text and a flight dump frozen at the end. These twins arm a
tracer and a tick hook, so every tick is booked alone.

The tick-run twins run with the tracer off and metrics on, so the pool
books whole tick runs, against ``reference_paths()``, where it steps
chunk by chunk and each tick is booked alone: from each tick count of
the current task, with locked, unlocked, mixed and lone tasks, chunks
longer than a tick period, and a tick period short enough that a tick's
own cost makes the next one due.
"""

import pytest

from repro.core import erebor_boot
from repro.libos import LibOs, Manifest
from repro.libos.threads import SPIN_SYNC_CYCLES, ThreadPool
from repro.obs import install
from repro.obs.export import chrome_trace, prometheus_text
from repro.vm import CvmMachine, MachineConfig, MIB
from tests.machine_state import clock_state
from tests.reference import reference_parallel_for
from tests.ticks import SHORT_PERIOD, boot, twin

#: ``(threads, items, cycles_per_item, sync_every)``: 7.2 M cycles of
#: chunks over 2.1 M-cycle ticks, an uneven split (a remainder), barriers
#: every third item, and a one-thread pool
SHAPES = {
    "4-threads": (4, 96, 300_003, 1),
    "sync-every-3": (4, 100, 290_000, 3),
    "1-thread": (1, 24, 300_001, 1),
}


def run(setting, shape, delta, *, batched):
    threads, items, cycles_per_item, sync_every = SHAPES[shape]
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    system = erebor_boot(machine, cma_bytes=32 * MIB)
    clock = machine.clock
    install(clock, trace=True, metrics=True, flight=True)
    if setting != "1-core":
        clock.ensure_cpus(2)
    libos = LibOs.boot_sandboxed(
        system, Manifest(name="app", heap_bytes=MIB, threads=threads))
    pool = libos.pool
    kernel = system.kernel
    # place the start so the third chunk ends ``delta`` past a tick
    wall = items * cycles_per_item // threads
    chunk = max(wall // max(items // sync_every, 1), 1)
    step = chunk + SPIN_SYNC_CYCLES * max(threads - 1, 1)
    target = 2 * step + chunk - delta
    kernel.pump()
    if kernel.cycles_to_tick() < target:
        clock.charge(kernel.cycles_to_tick(), "compute")
        kernel.pump()
    clock.charge(kernel.cycles_to_tick() - target, "compute")
    assert kernel.cycles_to_tick() == target
    ticks = []
    kernel.tick_hooks.append(lambda: ticks.append(clock.cycles))
    stats0 = (pool.stats.sync_points, pool.stats.spin_cycles)
    utime0 = libos.task.utime_cycles

    def body():
        if batched:
            pool.parallel_for(items, cycles_per_item, sync_every=sync_every)
        else:
            reference_parallel_for(pool, items, cycles_per_item,
                                   sync_every=sync_every)

    if setting == "on-cpu":
        with clock.on_cpu(1):
            body()
    else:
        body()
    clock.tracer.trigger("twin", "end of parallel_for")
    dump = clock.tracer.dumps[-1]
    return {
        "tags": [(lane, list(tags.items()))
                 for lane, tags in clock.tags_by_cpu.items()],
        "events": [(lane, list(events.items()))
                   for lane, events in clock.events_by_cpu.items()],
        "per_cpu": list(clock.per_cpu),
        "cycles": clock.cycles,
        "ticks": ticks,
        "utime": libos.task.utime_cycles - utime0,
        "sync_stats": (pool.stats.sync_points - stats0[0],
                       pool.stats.spin_cycles - stats0[1]),
        "prometheus": prometheus_text(clock),
        "trace": chrome_trace(clock.tracer),
        "flight": dump.to_dict(),
    }


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("setting", ["1-core", "serial-2", "on-cpu"])
def test_batches_match_per_chunk_steps(setting, shape, delta):
    batched = run(setting, shape, delta, batched=True)
    reference = run(setting, shape, delta, batched=False)
    assert len(reference["ticks"]) >= 3       # chunks straddle ticks
    for key in reference:
        assert batched[key] == reference[key], key


#: ``(threads, items, cycles_per_item, sync_every)`` of the tick-run
#: twins: dozens of chunks per tick, barriers every third item, chunks
#: longer than a tick period, and a one-thread pool
RUN_SHAPES = {
    "runs": (4, 960, 300_003, 1),
    "sync-every-3": (4, 1_000, 290_000, 3),
    "long-chunk": (2, 12, 9_000_001, 1),
    "1-thread": (1, 240, 300_001, 1),
}


def run_ticks(current, shape, period, observer=None):
    """``parallel_for`` from each tick count 0-3 of the current task, on
    a machine with metrics on and no tracer unless ``observer`` arms one;
    returns what each call left and the end state."""
    threads, items, cycles_per_item, sync_every = RUN_SHAPES[shape]
    machine, kernel, libos = boot(current, observer)
    if period == "short":
        # fewer ticks per call; long-chunk chunks still span periods
        kernel.tick_period = SHORT_PERIOD
        cycles_per_item //= 16
    pool = ThreadPool(libos, threads)
    steps = []
    for start in range(4):
        kernel._ticks_on_current = start
        pool.parallel_for(items, cycles_per_item, sync_every=sync_every)
        steps.append((machine.clock.cycles, kernel.current.pid,
                      kernel._ticks_on_current))
    state = clock_state(machine, kernel)
    state["sync_stats"] = (pool.stats.sync_points, pool.stats.spin_cycles)
    return steps, state


@pytest.mark.parametrize("period", ["default", "short"])
@pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
@pytest.mark.parametrize("current", ["locked", "unlocked", "mixed",
                                     "locked-1"])
def test_tick_runs_match_per_chunk_steps(current, shape, period):
    """Tracer off: whole tick runs booked at once against chunk-by-chunk
    steps that book each tick alone (``reference_paths()``)."""
    (runs_state, runs), (reference, ref_runs) = twin(
        lambda: run_ticks(current, shape, period))
    assert max(ref_runs) == 1
    assert max(runs) > 1 and len(runs) < len(ref_runs)
    assert runs_state[0] == reference[0]
    for key, value in reference[1].items():
        assert runs_state[1][key] == value, key


@pytest.mark.parametrize("observer", ["hook", "tracer"])
def test_tick_observers_keep_single_ticks(observer):
    """A tick hook or an armed tracer sees every tick: the bookings are
    the reference's one for one, and the trace is the same span for
    span."""
    (runs_state, runs), (reference, ref_runs) = twin(
        lambda: run_ticks("mixed", "runs", "default", observer))
    assert runs == ref_runs and max(runs) == 1
    assert runs_state == reference

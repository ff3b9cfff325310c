"""Tick runs: ``pump`` books timer ticks a run at a time.

Every test drives twin machines through the same steps: one twin as the
kernel runs, the other under ``reference_paths()``, where the run length
is 1 and each tick is booked alone. Everything simulated must come out
identical: both clock ledgers in insertion order, ``per_cpu``, every host
observation, ``utime_cycles``, the Prometheus text (metrics on, tracer off
unless a case arms it) and, after every step, the clock, the current task
and its tick count. The run-booking twin must also have booked runs of
more than one tick where nothing forces single ticks.
"""

import pytest

from repro.fleet import run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS
from repro.kernel.kernel import TIMESLICE_TICKS
from tests.machine_state import clock_state, machine_state_digest, wire_digest
from tests.ticks import CURRENT, SHORT_PERIOD, boot, twin


def lumps(machine, kernel):
    """Compute lumps that make 0-9 ticks due, from each tick count 0-3
    of the current task; returns what each step left."""
    steps = []
    period = kernel.tick_period
    for start in range(TIMESLICE_TICKS):
        for due in range(10):
            kernel._ticks_on_current = start
            lump = kernel.cycles_to_tick() - 1
            if due:
                # reach the due-th tick, some way into its period
                lump += (due - 1) * period + 1 + ((start + due) * 4_999
                                                  % period)
            kernel.advance(lump)
            steps.append((machine.clock.cycles, kernel.current.pid,
                          kernel._ticks_on_current))
    return steps


@pytest.mark.parametrize("period", ["default", "short"])
@pytest.mark.parametrize("current", CURRENT)
def test_lumps_book_runs_as_single_ticks(current, period):
    def body():
        machine, kernel, _ = boot(current)
        if period == "short":
            kernel.tick_period = SHORT_PERIOD
        steps = lumps(machine, kernel)
        return steps, clock_state(machine, kernel)

    (runs_state, runs), (reference, ref_runs) = twin(body)
    assert max(ref_runs) == 1
    assert max(runs) > 1
    assert runs_state[0] == reference[0]
    for key, value in reference[1].items():
        assert runs_state[1][key] == value, key


@pytest.mark.parametrize("observer", ["hook", "tracer"])
def test_observers_see_every_tick(observer):
    """A tick hook or an armed tracer forces single ticks: the bookings
    match the reference one for one, and so does the trace."""
    def body():
        machine, kernel, _ = boot("locked", observer)
        steps = lumps(machine, kernel)
        return steps, clock_state(machine, kernel)

    (runs_state, runs), (reference, ref_runs) = twin(body)
    assert runs == ref_runs and max(runs) == 1
    assert runs_state == reference


def test_llama_fleet_matches_per_tick_booking():
    """A reduced llama fleet booked in tick runs and, under
    ``reference_paths()``, a tick at a time: the same report, memory,
    ledgers, fault log, wire, and host observations record by record."""
    def body():
        report, system = run_fleet(**dict(LLAMA_FLEET_PARAMS, clients=2))
        clock = system.machine.clock
        fault_log = system.kernel.fault_log
        return {
            "digest": report.digest(),
            "state": machine_state_digest(system),
            "tags": [(lane, list(tags.items()))
                     for lane, tags in clock.tags_by_cpu.items()],
            "events": [(lane, list(events.items()))
                       for lane, events in clock.events_by_cpu.items()],
            "fault_log": (list(fault_log), fault_log.dropped),
            "wire": wire_digest(system),
            "observations": system.machine.vmm.observations,
        }

    (runs_state, runs), (reference, ref_runs) = twin(body)
    ticks = sum(runs)
    assert ticks == sum(ref_runs) and max(ref_runs) == 1
    # most ticks go in runs, and a run needs fewer bookings than ticks
    assert sum(n for n in runs if n > 1) > ticks // 2
    for key in ("digest", "state", "tags", "events", "fault_log", "wire"):
        assert runs_state[key] == reference[key], key
    observed, expected = runs_state["observations"], reference["observations"]
    assert len(observed) == len(expected)
    for i, (record, want) in enumerate(zip(observed, expected)):
        assert record == want, i

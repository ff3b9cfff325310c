"""The clock's derived totals against a brute-force reference model.

:class:`~repro.hw.cycles.CycleClock` stores each charge once, in one lane
of ``tags_by_cpu``, and each count once, in one lane of
``events_by_cpu``; ``by_tag``, ``busy_by_cpu``, ``events``,
``cpu_busy``, ``cpu_events`` and the ``snapshot``/``since`` deltas are
all computed from those lanes, with labelled ``(name, *labels)`` count
keys folded into their name. These tests drive a seeded random mix of
charges, counts, nested ``on_cpu`` scopes, ``ensure_cpus`` and
``fast_forward`` and compare every view with totals recomputed from a
plain log of what was recorded.
"""

import random
from collections import Counter
from dataclasses import fields

import pytest

from repro.hw.cycles import SERIAL_LANE, CycleClock

MAX_CPUS = 4
TAGS = ("instr", "mem", "emc", "pagefault", "sched", None)
#: bare names and labelled ``(name, *labels)`` keys; views fold by name
EVENTS = ("emc", "page_fault", "sandbox_exit", "cow_break",
          ("emc", "mmu", None), ("emc", "sst", 1), ("ve", "io"))


class Model:
    """The clock's semantics as a flat log plus per-core positions."""

    def __init__(self):
        self.per_cpu = [0]
        self.stack = []
        self.charges = []     # (lane, tag or None, cycles)
        self.counts = []      # (lane, event, n)

    def ensure_cpus(self, n):
        if n > len(self.per_cpu):
            wall = max(self.per_cpu)
            self.per_cpu += [wall] * (n - len(self.per_cpu))

    def charge(self, n, tag):
        if self.stack:
            lane = self.stack[-1]
            self.per_cpu[lane] += n
        elif len(self.per_cpu) == 1:
            lane = SERIAL_LANE
            self.per_cpu[0] += n
        else:
            lane = SERIAL_LANE
            self.per_cpu = [max(self.per_cpu) + n] * len(self.per_cpu)
        self.charges.append((lane, tag, n))

    def count(self, event, n):
        lane = self.stack[-1] if self.stack else SERIAL_LANE
        self.counts.append((lane, event, n))

    def fast_forward(self, cpu):
        self.ensure_cpus(cpu + 1)
        self.per_cpu[cpu] = max(self.per_cpu)

    # -- brute-force totals over the log ---------------------------------

    def by_tag(self, start=0):
        out = {}
        for _, tag, n in self.charges[start:]:
            if tag is not None:
                out[tag] = out.get(tag, 0) + n
        return out

    def busy_by_cpu(self):
        out = {}
        for lane, _, n in self.charges:
            if lane != SERIAL_LANE:
                out[lane] = out.get(lane, 0) + n
        return out

    def events(self, start=0, lane=None):
        out = {}
        for where, event, n in self.counts[start:]:
            if isinstance(event, tuple):
                event = event[0]
            if lane is None or where == lane:
                out[event] = out.get(event, 0) + n
        return out

    def cycles(self, start=0):
        return sum(n for _, _, n in self.charges[start:])


def _drive(rng, clock, model, depth=0):
    for _ in range(rng.randrange(1, 40)):
        op = rng.random()
        if op < 0.08 and depth < 3:
            cpu = rng.randrange(MAX_CPUS)
            with clock.on_cpu(cpu):
                model.ensure_cpus(cpu + 1)
                model.stack.append(cpu)
                _drive(rng, clock, model, depth + 1)
                model.stack.pop()
        elif op < 0.10:
            n = rng.randrange(1, MAX_CPUS + 1)
            clock.ensure_cpus(n)
            model.ensure_cpus(n)
        elif op < 0.12:
            cpu = rng.randrange(MAX_CPUS)
            clock.fast_forward(cpu)
            model.fast_forward(cpu)
        elif op < 0.60:
            n, tag = rng.randrange(0, 500), rng.choice(TAGS)
            clock.charge(n, tag)
            model.charge(n, tag)
        else:
            event, n = rng.choice(EVENTS), rng.randrange(0, 4)
            clock.count(event, n)
            model.count(event, n)


def _assert_views_match(clock, model):
    assert clock.cycles == model.cycles()
    assert clock.per_cpu == model.per_cpu
    assert dict(clock.by_tag) == model.by_tag()
    assert dict(clock.busy_by_cpu) == model.busy_by_cpu()
    assert dict(clock.events) == model.events()
    busy = model.busy_by_cpu()
    for cpu in range(MAX_CPUS):
        assert clock.cpu_busy(cpu) == busy.get(cpu, 0)
        assert dict(clock.cpu_events(cpu)) == model.events(lane=cpu)
    assert dict(clock.cpu_events(SERIAL_LANE)) == \
        model.events(lane=SERIAL_LANE)


@pytest.mark.parametrize("seed", range(6))
def test_derived_views_match_the_reference_model(seed):
    rng = random.Random(seed)
    clock, model = CycleClock(), Model()
    _drive(rng, clock, model)
    snap = clock.snapshot()
    marks = (len(model.charges), len(model.counts), max(model.per_cpu))
    _assert_views_match(clock, model)
    for _ in range(20):
        _drive(rng, clock, model)
    _assert_views_match(clock, model)

    delta = clock.since(snap)
    charges0, counts0, wall0 = marks
    assert delta.cycles == model.cycles(charges0)
    assert delta.wall_cycles == max(model.per_cpu) - wall0
    # Counter subtraction keeps only positive deltas
    assert dict(delta.by_tag) == {
        t: n for t, n in model.by_tag(charges0).items() if n > 0}
    assert dict(delta.events) == {
        e: n for e, n in model.events(counts0).items() if n > 0}


def test_mutating_a_returned_view_leaves_the_clock_unchanged():
    rng = random.Random(99)
    clock, model = CycleClock(), Model()
    for _ in range(10):
        _drive(rng, clock, model)
    views = (clock.by_tag, clock.busy_by_cpu, clock.events,
             clock.cpu_events(0), clock.cpu_events(SERIAL_LANE),
             clock.snapshot().by_tag, clock.snapshot().events)
    for view in views:
        view["instr"] += 1_000
        view[0] += 1_000
        view.clear()
    _assert_views_match(clock, model)


@pytest.mark.parametrize("name", ["by_tag", "busy_by_cpu", "events"])
def test_totals_are_read_only_and_not_stored(name):
    clock = CycleClock()
    assert name not in {f.name for f in fields(CycleClock)}
    with pytest.raises(AttributeError):
        setattr(clock, name, Counter())


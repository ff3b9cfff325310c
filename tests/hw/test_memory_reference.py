"""The extent allocator against a reference model of the eager one.

:class:`PhysicalMemory` keeps owner tags as extents and the monitor's
CMA pool as runs. :class:`EagerMemory` below is the allocator as it was
when every frame had its own object: a per-frame owner map, the bump
pointer and the freed-frame heap, with the same scans. Seeded random
sequences of ``alloc_frames`` (scattered and contiguous),
``free_frames`` and the monitor's ``take_cma_frames`` /
``return_cma_frames`` run on both; every returned frame list, every
``MemoryError`` and every owner tag must agree.
"""

from collections import deque
from heapq import heappop, heappush
import random

import pytest

from repro.core.monitor import EreborMonitor
from repro.hw.memory import PAGE_SIZE, FramePool, PhysicalMemory, frame_runs
from repro.vm import CvmMachine, MachineConfig

MEMORY_BYTES = 2 * 1024 * 1024       # 512 frames
CMA_FRAMES = 128
SHM_FRAMES = 32


class EagerMemory:
    """The per-frame allocator: an owner per frame, scanned frame by frame."""

    def __init__(self, num_frames):
        self.num_frames = num_frames
        self.owner = {}
        self.next_free = 0
        self.freed = []

    def free(self, fn):
        return self.owner.get(fn, "free") == "free"

    def alloc(self, count, owner, contiguous=False):
        got = []
        freed = self.freed
        if contiguous:
            fn = min(freed[0], self.next_free) if freed else self.next_free
            while len(got) < count and fn < self.num_frames:
                if self.free(fn):
                    got.append(fn)
                elif got:
                    for g in got:
                        heappush(freed, g)
                    got.clear()
                fn += 1
        else:
            while freed and len(got) < count and freed[0] < self.next_free:
                cand = heappop(freed)
                if self.free(cand) and cand not in got:
                    got.append(cand)
            fn = self.next_free
            while len(got) < count and fn < self.num_frames:
                if self.free(fn):
                    got.append(fn)
                fn += 1
        if len(got) < count:
            for g in got:
                heappush(freed, g)
            raise MemoryError(count)
        for g in got:
            self.owner[g] = owner
        if got and got[-1] == fn - 1:
            self.next_free = fn
        return got

    def free_frames(self, fns):
        for fn in fns:
            if not self.free(fn):
                heappush(self.freed, fn)
            self.owner[fn] = "free"

    def owned(self):
        out = {}
        for fn in sorted(self.owner):
            if self.owner[fn] != "free":
                out.setdefault(self.owner[fn], []).append(fn)
        return out


class EagerPool:
    """The monitor's CMA pool as a deque of frame numbers."""

    def __init__(self, mem, frames):
        self.mem = mem
        self.frames = deque(frames)

    def take(self, count, owner):
        if count > len(self.frames):
            raise MemoryError(count)
        got = [self.frames.popleft() for _ in range(count)]
        for fn in got:
            self.mem.owner[fn] = owner
        return got

    def give(self, frames):
        for fn in frames:
            self.mem.owner[fn] = "cma"
        self.frames.extend(frames)


def boot_pair():
    """A monitor installed on a small machine, and the eager model of it."""
    machine = CvmMachine(MachineConfig(memory_bytes=MEMORY_BYTES))
    monitor = EreborMonitor(machine, cma_bytes=CMA_FRAMES * PAGE_SIZE)
    monitor.SHARED_IO_BYTES = SHM_FRAMES * PAGE_SIZE
    monitor.install()
    model = EagerMemory(machine.phys.num_frames)
    model.alloc(64, "monitor")
    pool = EagerPool(model, model.alloc(CMA_FRAMES, "cma", contiguous=True))
    model.alloc(SHM_FRAMES, "shm-io", contiguous=True)
    return monitor, model, pool


def owned(phys):
    return {tag: phys.owned_by(tag) for tag in phys.usage_by_owner()}


def same(real, ref):
    """Run one operation on both sides: same result or same MemoryError."""
    try:
        want = ref()
    except MemoryError:
        with pytest.raises(MemoryError):
            real()
        return None
    got = real()
    assert got == want
    return got


@pytest.mark.parametrize("seed", range(12))
def test_allocator_matches_eager_reference(seed):
    rng = random.Random(seed)
    monitor, model, pool = boot_pair()
    phys = monitor.phys
    assert owned(phys) == model.owned()
    held = []           # frames handed out by alloc_frames (may be freed)
    taken = []          # frames taken from the CMA pool, not yet returned
    for step in range(160):
        op = rng.choice(("alloc", "alloc", "contig", "free", "free",
                         "take", "give"))
        owner = rng.choice(("kernel", "pt", "anon:1", "anon:2"))
        if op == "alloc":
            n = rng.randint(1, 24)
            got = same(lambda: phys.alloc_frames(n, owner),
                       lambda: model.alloc(n, owner))
            held.extend(got or [])
        elif op == "contig":
            n = rng.randint(1, 48)
            got = same(lambda: phys.alloc_frames(n, owner, contiguous=True),
                       lambda: model.alloc(n, owner, contiguous=True))
            held.extend(got or [])
        elif op == "free" and held:
            # double frees included: the guard must enqueue once
            fns = rng.sample(held, min(len(held), rng.randint(1, 16)))
            phys.free_frames(fns)
            model.free_frames(fns)
        elif op == "take":
            n = rng.randint(1, 24)
            sid = f"sandbox:{rng.randint(1, 3)}"
            got = same(lambda: monitor.take_cma_frames(n, sid),
                       lambda: pool.take(n, sid))
            taken.extend(got or [])
        elif op == "give" and taken:
            back = rng.sample(taken, rng.randint(1, len(taken)))
            if rng.random() < 0.5:
                back.sort()
            gone = set(back)
            taken = [fn for fn in taken if fn not in gone]
            monitor.return_cma_frames(back)
            pool.give(back)
        assert len(monitor._cma_pool) == len(pool.frames)
        if step % 8 == 0:
            assert owned(phys) == model.owned(), step
    assert owned(phys) == model.owned()
    assert phys.usage_by_owner() == {
        tag: len(fns) * PAGE_SIZE for tag, fns in model.owned().items()}
    pool_order = [fn for a, b in monitor._cma_pool.runs for fn in range(a, b)]
    assert pool_order == list(pool.frames)


def test_extents_stay_maximal():
    phys = PhysicalMemory(64 * PAGE_SIZE)
    a = phys.alloc_frames(8, "x")
    b = phys.alloc_frames(8, "x")
    assert a + b == list(range(16))
    assert list(zip(phys._starts, phys._stops, phys._owners)) == [(0, 16, "x")]
    phys.set_owner(4, 6, "y")
    phys.set_owner(4, 6, "x")
    assert list(zip(phys._starts, phys._stops, phys._owners)) == [(0, 16, "x")]
    phys.free_frames([15, 0])
    assert list(zip(phys._starts, phys._stops, phys._owners)) == [(1, 15, "x")]
    assert phys.owner_of(0) == "free" and phys.owner_of(1) == "x"


def test_frame_pool_keeps_fifo_order_as_runs():
    phys = PhysicalMemory(64 * PAGE_SIZE)
    pool = FramePool(phys, phys.alloc_range(16, "cma"), "cma")
    assert pool.take(5, "s") == [0, 1, 2, 3, 4]
    pool.give([3, 4, 0])
    assert list(pool.runs) == [(5, 16), (3, 5), (0, 1)]
    assert len(pool) == 14
    assert frame_runs([3, 4, 0, 9, 10]) == [(3, 5), (0, 1), (9, 11)]
    assert phys.owner_of(3) == "cma" and phys.owner_of(1) == "s"


def test_freed_frame_skipped_by_a_contiguous_search_is_handed_out_once():
    """A contiguous search queues the freed frame it skips a second time;
    the next scattered allocation must still return it only once."""
    phys = PhysicalMemory(64 * PAGE_SIZE)
    model = EagerMemory(64)
    for alloc, free in ((phys.alloc_frames, phys.free_frames),
                        (model.alloc, model.free_frames)):
        assert alloc(4, "x") == [0, 1, 2, 3]
        free([1])
        assert alloc(2, "y", contiguous=True) == [4, 5]
        assert alloc(2, "z") == [1, 6]
    assert owned(phys) == model.owned()

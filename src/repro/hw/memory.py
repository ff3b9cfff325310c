"""Simulated guest-physical memory: frames, owners, and byte storage.

The guest-physical address space is a sparse collection of 4 KiB frames.
Frames carry an *owner tag* (``"free"``, ``"kernel"``, ``"monitor"``,
``"pt"``, ``"sandbox:<id>"`` …) used by the monitor's mapping policies and
by the memory-accounting benchmarks, plus *type flags* the hardware model
consults (page-table page, shadow-stack page).

Everything is lazy. Owner tags are kept per run of frames (extents), so
reserving a 512 MiB pool is one tag. A frame gets a :class:`Frame` object
only when something needs it as one: its bytes, a type flag, or its
``version`` witness. Byte storage is lazier still: a frame materialises
its 4 KiB ``bytearray`` only when somebody writes bytes through it. The
bulk pages of a multi-GiB workload therefore remain metadata-only — the
simulation still *counts* their faults and mappings without allocating
gigabytes, or one object per page, on the host.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heappop, heappush

from .errors import SimulatorError

PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: the owner tag of an unallocated frame
FREE = "free"


def pages_for(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


class Frame:
    """The identity of one guest-physical 4 KiB frame, built on first use.

    :class:`PhysicalMemory` builds a ``Frame`` only for a frame something
    needs as an object: its bytes, a type flag, or the ``version``
    witness. A frame without one has no bytes, no flags and version 0.

    Attributes:
        fn: frame number (physical address ``fn << 12``).
        owner: logical owner tag used by allocation and mapping policy;
            a view of the memory's owner extents (reading and writing it
            goes through :meth:`PhysicalMemory.owner_of` and
            :meth:`PhysicalMemory.set_owner`).
        is_page_table: frame holds page-table entries.
        is_shadow_stack: frame is CET shadow-stack memory (writable only
            through shadow-stack operations, per the SDM's
            "non-writable-but-dirty" encoding).
        data: lazily-allocated byte contents.
        version: bumped on every byte mutation (write / zero / free).
            Host-plane staleness witness for the translation cache's
            blocks and burst data memo — never consulted by simulated
            semantics.
    """

    __slots__ = ("fn", "phys", "is_page_table", "is_shadow_stack", "data",
                 "version")

    def __init__(self, fn: int, phys: "PhysicalMemory"):
        self.fn = fn
        self.phys = phys
        self.is_page_table = False
        self.is_shadow_stack = False
        self.data: bytearray | None = None
        self.version = 0

    def __repr__(self) -> str:
        return (f"Frame(fn={self.fn:#x}, owner={self.owner!r}, "
                f"is_page_table={self.is_page_table}, "
                f"is_shadow_stack={self.is_shadow_stack}, "
                f"version={self.version})")

    @property
    def owner(self) -> str:
        return self.phys.owner_of(self.fn)

    @owner.setter
    def owner(self, owner: str) -> None:
        self.phys.set_owner(self.fn, self.fn + 1, owner)

    def materialize(self) -> bytearray:
        if self.data is None:
            self.data = bytearray(PAGE_SIZE)
        return self.data


class PhysicalMemory:
    """Sparse physical memory of ``num_frames`` 4 KiB frames.

    Owner tags live in *extents*: sorted, disjoint, maximal runs
    ``[start, stop)`` of allocated frames with one owner each; a frame in
    no extent is free. Tagging a run of any length is one extent update,
    so reserving a region costs O(regions), not O(pages).
    """

    def __init__(self, size_bytes: int):
        if size_bytes % PAGE_SIZE:
            raise SimulatorError("physical memory size must be page aligned")
        self.num_frames = size_bytes // PAGE_SIZE
        #: the frames built so far (see :class:`Frame`)
        self.frames: dict[int, Frame] = {}
        #: the owner extents, as three parallel lists
        self._starts: list[int] = []
        self._stops: list[int] = []
        self._owners: list[str] = []
        self._next_free = 0
        #: min-heap of explicitly freed frame numbers below the bump
        #: pointer, so reallocation never rescans the allocated prefix.
        #: Entries may be stale (re-taken by the bump scan) or repeated
        #: (a frame freed again, or skipped again by a contiguous
        #: search); consumers re-check the owner tag and skip repeats.
        #: Allocation order — ascending, lowest free frame first — is
        #: identical to a full scan.
        self._freed: list[int] = []
        #: gates the paging-structure cache of every AddressSpace over this
        #: memory (host-plane walk memoization; see AddressSpace.leaf_slot)
        #: and Mmu.check_run's spans. Cleared by boot when
        #: EreborFeatures.translation_cache is off so the cache-off
        #: configuration interprets every walk and checks every page alone.
        self.psc_enabled = True

    # ------------------------------------------------------------------ #
    # frame lifecycle
    # ------------------------------------------------------------------ #

    def _check(self, fn: int) -> None:
        if not 0 <= fn < self.num_frames:
            raise SimulatorError(f"frame {fn:#x} outside physical memory")

    def frame(self, fn: int) -> Frame:
        """Return (building on first use) the frame with number ``fn``."""
        f = self.frames.get(fn)
        if f is None:
            self._check(fn)
            f = self.frames[fn] = Frame(fn, self)
        return f

    def peek(self, fn: int) -> Frame | None:
        """The frame's :class:`Frame` if one was built, else None (a frame
        with no bytes and no flags); raises outside physical memory."""
        f = self.frames.get(fn)
        if f is None:
            self._check(fn)
        return f

    def owner_of(self, fn: int) -> str:
        """The owner tag of frame ``fn`` (``"free"`` when unallocated)."""
        i = bisect_right(self._starts, fn) - 1
        if i >= 0 and fn < self._stops[i]:
            return self._owners[i]
        self._check(fn)
        return FREE

    def run_owner(self, lo: int, hi: int) -> str | None:
        """The owner tag of every frame ``lo .. hi`` when they lie in one
        extent or one free gap, else None. Both must be frames of this
        memory."""
        i = bisect_right(self._starts, lo) - 1
        if i >= 0 and lo < self._stops[i]:
            return self._owners[i] if hi < self._stops[i] else None
        i += 1
        gap_end = self._starts[i] if i < len(self._starts) else self.num_frames
        return FREE if hi < gap_end else None

    def set_owner(self, start: int, stop: int, owner: str) -> None:
        """Tag frames ``start .. stop - 1`` with ``owner`` (``"free"``
        untags them) in one extent update."""
        starts, stops, owners = self._starts, self._stops, self._owners
        i = bisect_right(stops, start)      # extents i .. j-1 overlap
        j = bisect_left(starts, stop)
        pieces = []
        if i < j and starts[i] < start:
            pieces.append((starts[i], start, owners[i]))
        if owner != FREE:
            pieces.append((start, stop, owner))
        if i < j and stops[j - 1] > stop:
            pieces.append((stop, stops[j - 1], owners[j - 1]))
        # widen by one extent each side, so equal-owner neighbours merge
        if i > 0:
            i -= 1
            pieces.insert(0, (starts[i], stops[i], owners[i]))
        if j < len(starts):
            pieces.append((starts[j], stops[j], owners[j]))
            j += 1
        merged: list[list] = []
        for a, b, o in pieces:
            if merged and merged[-1][1] == a and merged[-1][2] == o:
                merged[-1][1] = b
            else:
                merged.append([a, b, o])
        starts[i:j] = [m[0] for m in merged]
        stops[i:j] = [m[1] for m in merged]
        owners[i:j] = [m[2] for m in merged]

    def _free_run(self, fn: int) -> tuple[int, int]:
        """The first run ``[a, b)`` of free frames with ``a >= fn``;
        ``a == b == num_frames`` when there is none."""
        starts, stops = self._starts, self._stops
        i = bisect_right(starts, fn) - 1
        if i >= 0 and fn < stops[i]:
            fn = stops[i]
        i += 1
        while i < len(starts) and starts[i] == fn:
            fn = stops[i]
            i += 1
        if fn >= self.num_frames:
            return self.num_frames, self.num_frames
        return fn, starts[i] if i < len(starts) else self.num_frames

    def alloc_frames(self, count: int, owner: str, *, contiguous: bool = False) -> list[int]:
        """Allocate ``count`` free frames and tag them with ``owner``.

        A bump allocator with a free-list fallback: explicitly freed
        frames below the bump pointer go first (ascending), then the
        lowest free frames above it. ``contiguous`` requests
        physically-contiguous frames (see :meth:`alloc_range`).
        """
        if contiguous:
            return list(self.alloc_range(count, owner))
        if count <= 0:
            raise SimulatorError("allocation count must be positive")
        freed = self._freed
        got: list[int] = []
        while freed and len(got) < count and freed[0] < self._next_free:
            cand = heappop(freed)
            # the heap pops ascending, so a repeat follows its first copy
            if self.owner_of(cand) == FREE and (not got or got[-1] != cand):
                got.append(cand)
        runs: list[tuple[int, int]] = []
        need = count - len(got)
        fn = self._next_free
        while need:
            a, b = self._free_run(fn)
            if a == b:
                break
            fn = a + min(b - a, need)
            runs.append((a, fn))
            need -= fn - a
        if need:
            for a, b in runs:       # return candidates: nothing was tagged
                got.extend(range(a, b))
            for g in got:
                heappush(freed, g)
            raise MemoryError(f"out of physical frames (wanted {count})")
        for g in got:
            self.set_owner(g, g + 1, owner)
        for a, b in runs:
            self.set_owner(a, b, owner)
            got.extend(range(a, b))
        if runs:
            self._next_free = fn
        return got

    def alloc_range(self, count: int, owner: str) -> range:
        """Allocate ``count`` physically-contiguous frames, tagged
        ``owner`` (the CMA-style reserved regions backing confined
        memory): the lowest free run long enough, searched from the
        lowest freed frame. Free runs too short for it join the free
        list."""
        if count <= 0:
            raise SimulatorError("allocation count must be positive")
        freed = self._freed
        fn = min(freed[0], self._next_free) if freed else self._next_free
        while True:
            a, b = self._free_run(fn)
            if b - a >= count:
                break
            for g in range(a, b):
                heappush(freed, g)
            if b >= self.num_frames:
                raise MemoryError(f"out of physical frames (wanted {count})")
            fn = b
        self.set_owner(a, a + count, owner)
        self._next_free = a + count
        return range(a, a + count)

    def alloc_frame(self, owner: str) -> int:
        return self.alloc_frames(1, owner)[0]

    def free_frames(self, fns: list[int]) -> None:
        for fn in fns:
            if self.owner_of(fn) != FREE:   # a double free enqueues once
                heappush(self._freed, fn)
                self.set_owner(fn, fn + 1, FREE)
            f = self.frames.get(fn)
            if f is not None:
                f.is_page_table = False
                f.is_shadow_stack = False
                f.data = None
                f.version += 1

    def owned_by(self, owner: str) -> list[int]:
        """The frames tagged ``owner``, ascending."""
        out: list[int] = []
        for a, b, o in zip(self._starts, self._stops, self._owners):
            if o == owner:
                out.extend(range(a, b))
        return out

    # ------------------------------------------------------------------ #
    # raw byte access (no permission checks; the MMU layers checks on top)
    # ------------------------------------------------------------------ #

    def read(self, pa: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            fn, off = pa >> PAGE_SHIFT, pa & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - off)
            f = self.peek(fn)
            data = None if f is None else f.data
            if data is None:
                out += b"\x00" * chunk
            else:
                out += data[off:off + chunk]
            pa += chunk
            size -= chunk
        return bytes(out)

    def write(self, pa: int, data: bytes) -> None:
        off_in = 0
        size = len(data)
        while off_in < size:
            fn, off = pa >> PAGE_SHIFT, pa & (PAGE_SIZE - 1)
            chunk = min(size - off_in, PAGE_SIZE - off)
            frame = self.frame(fn)
            buf = frame.materialize()
            buf[off:off + chunk] = data[off_in:off_in + chunk]
            frame.version += 1
            pa += chunk
            off_in += chunk

    def read_u64(self, pa: int) -> int:
        off = pa & (PAGE_SIZE - 1)
        if off <= PAGE_SIZE - 8:
            fn = pa >> PAGE_SHIFT
            f = self.peek(fn)
            if f is None:
                return 0
            data = f.data
            if data is None:
                return 0
            return int.from_bytes(data[off:off + 8], "little")
        return int.from_bytes(self.read(pa, 8), "little")

    def write_u64(self, pa: int, value: int) -> None:
        off = pa & (PAGE_SIZE - 1)
        value &= 2 ** 64 - 1
        if off <= PAGE_SIZE - 8:
            frame = self.frame(pa >> PAGE_SHIFT)
            data = frame.data
            if data is None:
                data = frame.materialize()
            data[off:off + 8] = value.to_bytes(8, "little")
            frame.version += 1
            return
        self.write(pa, value.to_bytes(8, "little"))

    def zero_frame(self, fn: int) -> None:
        f = self.peek(fn)
        if f is None:
            return              # no bytes, and no witness to invalidate
        if f.data is not None:
            f.data = bytearray(PAGE_SIZE)
        f.version += 1

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def usage_by_owner(self) -> dict[str, int]:
        """Bytes of physical memory per owner tag (metadata frames count)."""
        usage: dict[str, int] = {}
        for a, b, o in zip(self._starts, self._stops, self._owners):
            usage[o] = usage.get(o, 0) + (b - a) * PAGE_SIZE
        return usage


def frame_runs(frames) -> list[tuple[int, int]]:
    """``frames`` in order as ``(start, stop)`` runs of consecutive
    ascending frame numbers."""
    runs: list[list[int]] = []
    for fn in frames:
        if runs and runs[-1][1] == fn:
            runs[-1][1] = fn + 1
        else:
            runs.append([fn, fn + 1])
    return [(a, b) for a, b in runs]


class FramePool:
    """A FIFO pool of reserved frames, held as ``(start, stop)`` runs.

    Frames leave from the left, in the order they entered, and return on
    the right, where a returned frame that continues the last run extends
    it: the frame order is exactly that of a per-frame deque, at O(runs)
    cost. ``len`` counts frames. Frames in the pool carry the pool's
    owner tag.
    """

    def __init__(self, phys: PhysicalMemory, frames: range, owner: str):
        self.phys = phys
        self.owner = owner
        self.runs: deque[tuple[int, int]] = deque(
            [(frames.start, frames.stop)] if frames else [])
        self._count = len(frames)

    def __len__(self) -> int:
        return self._count

    def take(self, count: int, owner: str) -> list[int]:
        """The next ``count`` frames, tagged ``owner`` (``count`` must
        not exceed ``len``)."""
        runs, set_owner = self.runs, self.phys.set_owner
        frames: list[int] = []
        while len(frames) < count:
            a, b = runs[0]
            end = min(b, a + count - len(frames))
            if end == b:
                runs.popleft()
            else:
                runs[0] = (end, b)
            set_owner(a, end, owner)
            frames.extend(range(a, end))
        self._count -= count
        return frames

    def give(self, frames: list[int]) -> None:
        """Zero ``frames``, tag them with the pool's owner and append
        them in order."""
        phys, runs = self.phys, self.runs
        for fn in frames:
            phys.zero_frame(fn)
        for a, b in frame_runs(frames):
            phys.set_owner(a, b, self.owner)
            if runs and runs[-1][1] == a:
                runs[-1] = (runs[-1][0], b)
            else:
                runs.append((a, b))
        self._count += len(frames)

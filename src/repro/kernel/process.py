"""Tasks, virtual memory areas, and memory backings.

A :class:`Task` is one schedulable entity with its own address space and
VMA list. Demand paging is driven by *backings*: a VMA delegates
"which physical frame holds page N" to its backing object, which is how
the four memory kinds of the paper coexist behind one fault handler:

* anonymous memory — frames allocated on first touch,
* file mappings — frames of the page cache,
* **confined** sandbox memory — pre-reserved, pinned, monitor-declared
  frames that may be mapped into exactly one address space,
* **common** sandbox memory — read-only frames shared across sandboxes
  (the ML model / database sharing of §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from ..hw.paging import AddressSpace

if TYPE_CHECKING:
    from .vfs import RegularFile

PROT_READ = 1 << 0
PROT_WRITE = 1 << 1
PROT_EXEC = 1 << 2

USER_CODE_BASE = 0x0040_0000
USER_HEAP_BASE = 0x1000_0000
USER_MMAP_BASE = 0x10_0000_0000
USER_STACK_TOP = 0x3F_F000_0000


class SegmentationFault(Exception):
    """User access outside any VMA (or violating its protection)."""


class Backing:
    """Supplies physical frames for a VMA's pages."""

    pinned = False
    #: whether :meth:`frame_for` may allocate a frame (and so must run
    #: one page at a time, each page checked before the next allocates)
    allocates = False

    def frame_for(self, page_index: int, phys: PhysicalMemory, owner: str) -> int:
        raise NotImplementedError

    def frames_for(self, index: int, count: int, step: int,
                   phys: PhysicalMemory, owner: str) -> list[int]:
        """The frames of pages ``index, index + step, …`` (``count`` of
        them): the same frames, in the same order, as one
        :meth:`frame_for` call per page. The list stops before the first
        page that has no frame (past the backing's end, or none left to
        allocate), where :meth:`frame_for` raises."""
        frames = []
        try:
            for page in range(index, index + count * step, step):
                frames.append(self.frame_for(page, phys, owner))
        except (IndexError, MemoryError):
            pass
        return frames


class AnonBacking(Backing):
    """Demand-zero anonymous memory: allocate on first touch."""

    allocates = True

    def __init__(self):
        self.frames: dict[int, int] = {}

    def frame_for(self, page_index, phys, owner):
        fn = self.frames.get(page_index)
        if fn is None:
            fn = phys.alloc_frame(owner)
            self.frames[page_index] = fn
        return fn


class FileBacking(Backing):
    """Page-cache frames of a file mapping."""

    def __init__(self, file: "RegularFile", offset: int = 0):
        self.file = file
        self.offset = offset

    allocates = True

    def frame_for(self, page_index, phys, owner):
        return self.file.page_cache_frame(
            (self.offset >> PAGE_SHIFT) + page_index, phys)


class PinnedBacking(Backing):
    """A fixed, pre-allocated frame range (sandbox confined memory)."""

    pinned = True

    def __init__(self, frames: list[int]):
        self.frames = frames

    def frame_for(self, page_index, phys, owner):
        return self.frames[page_index]

    def frames_for(self, index, count, step, phys, owner):
        return self.frames[index:index + count * step:step]


class SharedBacking(Backing):
    """Frames shared read-only across address spaces (common memory)."""

    def __init__(self, frames: list[int]):
        self.frames = frames

    def frame_for(self, page_index, phys, owner):
        return self.frames[page_index]

    def frames_for(self, index, count, step, phys, owner):
        return self.frames[index:index + count * step:step]


class CowBacking(Backing):
    """Copy-on-write confined memory forked from a sandbox template.

    Pages resolve to the (read-only, shared) template frame until the
    sandbox first writes them; the monitor then breaks the share into a
    private confined frame recorded in :attr:`private`. Faults on these
    VMAs are never resolved by the OS — the monitor self-pages them, so
    the template/private split (and the access pattern) stays invisible
    to the kernel.
    """

    pinned = True

    def __init__(self, template_frames: list[int], template: str):
        self.template_frames = template_frames
        self.template = template
        #: page index -> private confined frame (populated on first write)
        self.private: dict[int, int] = {}

    def frame_for(self, page_index, phys, owner):
        fn = self.private.get(page_index)
        return fn if fn is not None else self.template_frames[page_index]


@dataclass
class Vma:
    """One contiguous virtual memory area."""

    start: int
    length: int
    prot: int
    backing: Backing
    kind: str = "anon"          # anon | file | confined | common | stack
    pkey: int = 0

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end

    def page_index(self, va: int) -> int:
        return (va - self.start) >> PAGE_SHIFT


@dataclass
class Task:
    """One schedulable task (process or LibOS-managed thread group)."""

    pid: int
    name: str
    aspace: AddressSpace
    kind: str = "native"                     # native | sandbox | proxy
    vmas: list[Vma] = field(default_factory=list)
    fds: dict[int, object] = field(default_factory=dict)
    next_fd: int = 3
    brk: int = USER_HEAP_BASE
    mmap_cursor: int = USER_MMAP_BASE
    state: str = "runnable"                  # runnable | blocked | dead
    sandbox: object | None = None            # set for sandboxed tasks
    exit_code: int | None = None
    utime_cycles: int = 0

    def find_vma(self, va: int) -> Vma | None:
        for vma in self.vmas:
            if vma.start <= va < vma.start + vma.length:
                return vma
        return None

    def add_vma(self, vma: Vma) -> Vma:
        for existing in self.vmas:
            if vma.start < existing.end and existing.start < vma.end:
                raise ValueError(
                    f"VMA overlap: [{vma.start:#x},{vma.end:#x}) vs "
                    f"[{existing.start:#x},{existing.end:#x})")
        self.vmas.append(vma)
        return vma

    def remove_vma(self, vma: Vma) -> None:
        self.vmas.remove(vma)

    def alloc_fd(self, obj: object) -> int:
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = obj
        return fd

    def mmap_range(self, length: int) -> int:
        start = self.mmap_cursor
        self.mmap_cursor += (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        self.mmap_cursor += PAGE_SIZE  # guard gap
        return start

    @property
    def owner_tag(self) -> str:
        if self.kind == "sandbox" and self.sandbox is not None:
            return f"sandbox:{self.sandbox.sandbox_id}"
        return f"task:{self.pid}"


def sandbox_owner(task: Task | None) -> int | None:
    """Owner label of an event, as a raw value: the ID of the sandbox
    ``task`` runs in, or None for the kernel, native tasks and no task."""
    if task is not None and task.kind == "sandbox" and task.sandbox is not None:
        return task.sandbox.sandbox_id
    return None

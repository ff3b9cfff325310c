"""Fixed-capacity ring buffer shared by the trace layer and the audit log.

Long-running and server benchmarks generate unbounded event streams; the
observability layer must never grow without bound (the old monitor
``audit_log`` was a plain ``list`` that did exactly that). A
:class:`RingBuffer` keeps the most recent ``capacity`` items and counts
what it overwrote, so consumers can tell "nothing happened" apart from
"events happened but were dropped".
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Bounded FIFO keeping the newest ``capacity`` items.

    Supports the list-ish read surface the audit log's consumers use:
    ``len``, iteration (oldest → newest, or newest first through
    ``reversed``), integer and slice indexing.
    Overwritten items are counted by :attr:`dropped`.

    Storage is a ``deque(maxlen=capacity)`` so the append path — the
    tracer emits one append per record, hundreds of thousands per fleet
    run — is a single C call with no index arithmetic, in the wrapped
    regime too. Hot emit paths (see :meth:`Tracer._emit
    <repro.obs.trace.Tracer._emit>`) are allowed to reach through
    :attr:`pushed`/:attr:`_buf` directly to skip the method-call
    overhead; the invariant they must keep is one ``pushed`` increment
    per ``_buf.append``.
    """

    __slots__ = ("capacity", "pushed", "_buf")

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: total items ever appended (dropped is derived from this)
        self.pushed = 0
        self._buf: deque[T] = deque(maxlen=capacity)

    def append(self, item: T) -> None:
        self.pushed += 1
        self._buf.append(item)

    def extend(self, items) -> None:
        items = list(items)
        self.pushed += len(items)
        self._buf.extend(items)

    def clear(self) -> None:
        self._buf.clear()
        self.pushed = 0

    @property
    def dropped(self) -> int:
        return self.pushed - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __bool__(self) -> bool:
        return bool(self._buf)

    def __iter__(self) -> Iterator[T]:
        return iter(self._buf)

    def __reversed__(self) -> Iterator[T]:
        return reversed(self._buf)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._buf)[index]
        try:
            return self._buf[index]
        except IndexError:
            raise IndexError(f"ring index {index} out of range "
                             f"({len(self._buf)} items)") from None

    def __repr__(self) -> str:
        return (f"RingBuffer({len(self._buf)}/{self.capacity} items, "
                f"{self.dropped} dropped)")

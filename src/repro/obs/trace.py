"""Structured trace layer: spans and events on the simulated cycle clock.

Every record is timestamped in *simulated cycles* read from the machine's
:class:`~repro.hw.cycles.CycleClock` — never wall-clock — so traces are
deterministic and line up exactly with the calibrated cycle model.
Tracing only ever *reads* the clock; it never charges it, so enabling a
tracer changes no benchmark number (a test pins the empty EMC round trip
at 1224 cycles with a live tracer attached).

The layer is off by default: every clock carries the shared
:data:`NULL_TRACER`, whose methods are no-ops, until
:func:`repro.obs.install` swaps in a real :class:`Tracer`. Recorded
events live in a bounded :class:`~repro.obs.ring.RingBuffer`; span
self-cycles are additionally folded into a path-keyed aggregate
(:attr:`Tracer.folded`) that survives ring drops, which is what the
flamegraph profiler consumes.

Two properties of the emit path matter at fleet scale:

* **allocation-light** — a fleet run emits hundreds of thousands of
  records, and the recorder's host-side cost is the obs plane's only
  real overhead (simulated overhead is zero by construction). Records
  are tuples (:class:`TraceEvent` subclasses ``tuple``; field access
  goes through properties only at export time), span names and
  categories are interned, the span context manager *is* the stack
  frame (one allocation per span, not two), and each frame caches its
  full path tuple so closing a span never rebuilds it. ``perfbench``
  measures the result as ``obs.emit.self_ms_per_req``.
* **request context** — :meth:`Tracer.bind` scopes a request-level
  trace ID over a region of execution; every record emitted inside the
  binding carries it in :attr:`TraceEvent.trace`, which is what
  :mod:`repro.obs.reqtrace` groups into per-request causal span trees.

This module deliberately imports nothing from the rest of the package so
:mod:`repro.hw.cycles` can depend on it without cycles.
"""

from __future__ import annotations

import gc
from collections import Counter
from sys import intern as _intern
from typing import Iterator

from .ring import RingBuffer

#: event kinds
SPAN = "span"          # has a begin and an end cycle
INSTANT = "instant"    # a point in time
AUDIT = "audit"        # a monitor audit decision routed through the trace

#: default ring capacity (events); ~200 bytes/event worst case
DEFAULT_CAPACITY = 1 << 17

#: ring capacity for request tracing — a traced fleet run emits hundreds
#: of thousands of events, and the default ring would drop the oldest
#: sessions so every tree would read "incomplete"
REQUEST_TRACE_CAPACITY = 1 << 19

#: C-speed constructor used on the hot path (no Python ``__new__`` frame)
_new_event = tuple.__new__


class TraceEvent(tuple):
    """One trace record (a completed span or a point event).

    Stored as a bare 10-tuple — the emit path creates one C-level tuple
    per record and nothing else — with named access through properties
    for every consumer that formats, filters, or exports.
    """

    __slots__ = ()

    def __new__(cls, name: str, cat: str = "", kind: str = INSTANT,
                begin: int = 0, end: int = 0, depth: int = 0,
                path: tuple = (), args: dict | None = None,
                cpu: int | None = None, trace: str | None = None):
        return _new_event(cls, (name, cat, kind, begin, end, depth,
                                tuple(path), {} if args is None else args,
                                cpu, trace))

    @property
    def name(self) -> str:
        return self[0]

    @property
    def cat(self) -> str:
        return self[1]

    @property
    def kind(self) -> str:
        return self[2]

    @property
    def begin(self) -> int:                 # cycle the record opened
        return self[3]

    @property
    def end(self) -> int:                   # cycle it closed (== begin
        return self[4]                      # for instants)

    @property
    def depth(self) -> int:                 # nesting depth at record time
        return self[5]

    @property
    def path(self) -> tuple:                # span-stack path, root first
        return self[6]

    @property
    def args(self) -> dict:
        return self[7]

    @property
    def cpu(self) -> int | None:            # executing logical CPU at
        return self[8]                      # record time (None = serial)

    @property
    def trace(self) -> str | None:          # bound request trace ID
        return self[9]

    @property
    def duration(self) -> int:
        return self[4] - self[3]

    def to_dict(self) -> dict:
        out = {
            "name": self[0], "cat": self[1], "kind": self[2],
            "begin": self[3], "end": self[4], "depth": self[5],
            "path": list(self[6]), "args": dict(self[7]),
            "cpu": self[8],
        }
        if self[9] is not None:
            out["trace"] = self[9]
        return out

    def __repr__(self) -> str:
        return (f"TraceEvent({self[0]!r}, kind={self[2]!r}, "
                f"begin={self[3]}, end={self[4]}, cpu={self[8]})")


class _NullSpan:
    """Context manager that does nothing (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-op recorder: default sink on every :class:`CycleClock`.

    All methods are O(1) no-ops so instrumented hot paths (gates, syscall
    dispatch, exit interposition) cost nothing extra when observability
    is off — and, by construction, zero *simulated* cycles either way.
    """

    enabled = False
    #: request trace ID currently bound (always None on the null tracer)
    current_trace = None
    __slots__ = ()

    def span(self, name: str, cat: str = "", /, **args) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, cat: str = "", /, **args) -> None:
        return None

    def audit(self, kind: str, detail: str, cycle: int | None = None) -> None:
        return None

    def bind(self, trace_id: str | None) -> _NullSpan:
        """Scope a request trace ID over a region (no-op when disabled)."""
        return _NULL_SPAN

    def trigger(self, reason: str, detail: str = "") -> None:
        """A flight-recorder trigger point (security violation, C-series
        check failure, SLO breach). No-op unless a
        :class:`~repro.obs.flight.FlightRecorder` is installed."""
        return None

    def finish(self) -> None:
        return None


#: the shared disabled recorder (stateless, safe to share everywhere)
NULL_TRACER = NullTracer()


#: exited span frames kept for reuse per tracer (a fleet's span depth
#: never approaches this; the cap only bounds idle memory)
_SPAN_POOL_MAX = 64

#: shared args mapping for records with no arguments. Stored by
#: reference in the event tuple and treated as immutable everywhere
#: (every consumer copies before mutating); sharing it means a fleet
#: run's worth of argument-less records adds zero long-lived dicts to
#: the gc heap, which is what keeps collector pauses off the emit path.
_EMPTY_ARGS: dict = {}


class _Span:
    """Span context manager *and* stack frame (one allocation per span).

    Frames are recycled through the owning tracer's pool: ``__exit__``
    returns the object for the next :meth:`Tracer.span` call to reuse,
    so a steady-state fleet run allocates a handful of frames total
    instead of one per span. Safe because a frame is only pooled after
    it closed and no reader touches a frame after close.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "begin",
                 "child_cycles", "path", "trace")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self.begin = tracer.clock.cycles
        self.child_cycles = 0
        # paths are interned per (parent, name): every span at the same
        # call site shares one tuple instead of minting a fresh concat,
        # so the ring's long-lived heap growth is one object per record
        parent = stack[-1].path if stack else ()
        cache = tracer._path_cache
        path = cache.get((parent, self.name))
        if path is None:
            path = cache[(parent, self.name)] = parent + (self.name,)
        self.path = path
        self.trace = tracer._trace
        stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        stack = tracer._stack
        stack.pop()
        clock = tracer.clock
        end = clock.cycles
        duration = end - self.begin
        self_cycles = duration - self.child_cycles
        cpu_stack = clock._cpu_stack
        cpu = cpu_stack[-1] if cpu_stack else None
        path = self.path
        if cpu is not None and len(clock.per_cpu) > 1:
            # SMP profile: attribute self-cycles to the executing core so
            # collapsed stacks from different CPUs never interleave; the
            # per-core counters avoid a key-tuple concat on every exit
            # (the cpu-prefixed view is merged lazily by :attr:`folded`)
            fold = tracer._fold_by_cpu.get(cpu)
            if fold is None:
                fold = tracer._fold_by_cpu[cpu] = Counter()
            fold[path] += self_cycles
        else:
            tracer._fold_serial[path] += self_cycles
        if stack:
            stack[-1].child_cycles += duration
        tracer._emit(_new_event(TraceEvent, (
            self.name, self.cat, SPAN, self.begin, end, len(stack), path,
            self.args or _EMPTY_ARGS, cpu, self.trace)))
        pool = tracer._span_pool
        if len(pool) < _SPAN_POOL_MAX:
            pool.append(self)
        return False


class _Bind:
    """Context manager scoping :attr:`Tracer.current_trace`."""

    __slots__ = ("_tracer", "_trace_id", "_prev")

    def __init__(self, tracer: "Tracer", trace_id: str | None):
        self._tracer = tracer
        self._trace_id = trace_id

    def __enter__(self) -> "_Bind":
        self._prev = self._tracer._trace
        self._tracer._trace = self._trace_id
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._trace = self._prev
        return False


class Tracer(NullTracer):
    """Recording trace sink bound to one cycle clock."""

    enabled = True
    __slots__ = ("clock", "events", "_fold_serial", "_fold_by_cpu",
                 "_stack", "_trace", "_cpu_keys", "_span_pool",
                 "_path_cache")

    def __init__(self, clock, capacity: int = DEFAULT_CAPACITY):
        self.clock = clock
        self.events: RingBuffer[TraceEvent] = RingBuffer(capacity)
        #: span path → self-cycles, serial (no-core) portion; aggregated
        #: at span exit, so it is immune to ring-buffer drops
        self._fold_serial: Counter = Counter()
        #: cpu id → (span path → self-cycles) for SMP runs
        self._fold_by_cpu: dict[int, Counter] = {}
        self._stack: list[_Span] = []
        #: currently bound request trace ID (see :meth:`bind`)
        self._trace: str | None = None
        #: cpu id → interned ("cpuN",) prefix for SMP folded keys
        self._cpu_keys: dict[int, tuple] = {}
        #: recycled span frames (see :class:`_Span`)
        self._span_pool: list[_Span] = []
        #: (parent path, name) → shared path tuple (see ``_Span.__enter__``)
        self._path_cache: dict[tuple, tuple] = {}

    # -- recording ------------------------------------------------------- #

    def span(self, name: str, cat: str = "", /, **args) -> _Span:
        """Open a nested span; use as a context manager.

        ``name`` and ``cat`` are positional-only so callers may attach
        event args of those names; pass the category positionally —
        ``span("gate", "gate")`` — to fill the record's ``cat`` slot.
        Argument-less spans (the overwhelming majority) then store the
        shared empty args dict instead of a fresh mapping per record.
        """
        pool = self._span_pool
        if pool:
            span = pool.pop()
            span.name = _intern(name)
            span.cat = _intern(cat)
            span.args = args
            return span
        return _Span(self, _intern(name), _intern(cat), args)

    def event(self, name: str, cat: str = "", /, **args) -> None:
        """Record an instant event at the current cycle and depth."""
        clock = self.clock
        now = clock.cycles
        stack = self._stack
        name = _intern(name)
        path = self._path(stack[-1].path if stack else (), name)
        cpu_stack = clock._cpu_stack
        self._emit(_new_event(TraceEvent, (
            name, _intern(cat), INSTANT, now, now, len(stack), path,
            args or _EMPTY_ARGS, cpu_stack[-1] if cpu_stack else None,
            self._trace)))

    def audit(self, kind: str, detail: str, cycle: int | None = None) -> None:
        """Record a monitor audit decision as a ``kind="audit"`` event."""
        clock = self.clock
        now = clock.cycles if cycle is None else cycle
        stack = self._stack
        name = _intern(f"audit:{kind}")
        path = self._path(stack[-1].path if stack else (), name)
        cpu_stack = clock._cpu_stack
        self._emit(_new_event(TraceEvent, (
            name, "audit", AUDIT, now, now, len(stack), path,
            {"detail": detail}, cpu_stack[-1] if cpu_stack else None,
            self._trace)))

    def bind(self, trace_id: str | None) -> _Bind:
        """Scope a request-level trace ID over a region of execution.

        Every record emitted inside the ``with`` (spans closed, instants,
        audits, triggers — at any nesting depth, from any layer) carries
        ``trace_id`` in :attr:`TraceEvent.trace`. Bindings nest and
        restore the previous context on exit; ``bind(None)`` explicitly
        clears the context for a region (e.g. fleet-wide bookkeeping in
        the middle of a request). The binding never touches the clock.
        """
        return _Bind(self, trace_id)

    @property
    def current_trace(self) -> str | None:
        """The trace ID bound by the innermost active :meth:`bind`."""
        return self._trace

    def trigger(self, reason: str, detail: str = "") -> None:
        """Record a trigger point as an instant event (see FlightRecorder
        for the subclass that additionally freezes a black-box dump)."""
        self.event(f"flight:{reason}", "flight", detail=detail)

    def finish(self) -> None:
        """Close every still-open span at the current cycle."""
        while self._stack:
            self._stack[-1].__exit__(None, None, None)

    # -- span machinery -------------------------------------------------- #

    def _cpu_key(self, cpu: int) -> tuple:
        key = self._cpu_keys.get(cpu)
        if key is None:
            key = self._cpu_keys[cpu] = (_intern(f"cpu{cpu}"),)
        return key

    def _path(self, parent: tuple, name: str) -> tuple:
        """Interned path tuple for ``parent + (name,)`` (shared, not minted)."""
        cache = self._path_cache
        path = cache.get((parent, name))
        if path is None:
            path = cache[(parent, name)] = parent + (name,)
        return path

    def _emit(self, event: TraceEvent) -> None:
        """Single sink for every record. Reaches into the ring directly —
        one increment, one C append — because this runs once per record
        at fleet scale."""
        events = self.events
        events.pushed += 1
        events._buf.append(event)

    # -- inspection ------------------------------------------------------ #

    @property
    def folded(self) -> Counter:
        """Path-keyed self-cycle aggregate (flamegraph input).

        Serial spans key by their path; SMP spans gain a ``("cpuN",)``
        prefix. Merged on demand from the per-core counters the exit
        path maintains — reads happen at export time, writes happen
        hundreds of thousands of times per run, so the merge cost sits
        on the right side.
        """
        if not self._fold_by_cpu:
            return self._fold_serial
        merged = Counter(self._fold_serial)
        for cpu, counter in self._fold_by_cpu.items():
            prefix = self._cpu_key(cpu)
            for path, cycles in counter.items():
                merged[prefix + path] += cycles
        return merged

    @property
    def dropped(self) -> int:
        return self.events.dropped

    def total_attributed(self) -> int:
        """Sum of folded self-cycles == total cycles under closed roots."""
        total = sum(self._fold_serial.values())
        for counter in self._fold_by_cpu.values():
            total += sum(counter.values())
        return total

    def spans(self) -> Iterator[TraceEvent]:
        return (e for e in self.events if e[2] == SPAN)

    def __repr__(self) -> str:
        return (f"Tracer({len(self.events)} events, depth "
                f"{len(self._stack)}, {self.dropped} dropped)")


class gc_batched_recording:
    """Batch the host garbage collector while recording is armed.

    An armed recorder retains one container object per record by design
    (the ring holds the tuples; that *is* the product), so a fleet run
    grows the young generation by hundreds of thousands of survivors.
    At CPython's default gen-0 threshold (700 net allocations) that
    tempo makes the collector fire hundreds of extra times per armed
    run, rescanning ring survivors it can never free — measured as the
    single largest component of the recorder's host overhead after the
    emit path itself went allocation-light.

    This guard raises the young-generation threshold for the duration
    of an armed run and restores the previous tuning on exit. It only
    changes *when* the host collector runs, never what the simulator
    computes: simulated cycles, digests, and every recorded event are
    byte-identical with or without it (the D1/D2 discipline does not
    apply — no clock is read or charged).

    ``enabled=False`` makes it a no-op so call sites can write
    ``with gc_batched_recording(tracer.enabled):`` unconditionally.
    """

    #: (gen0, gen1, gen2) thresholds while recording; gen0 is sized so a
    #: full default ring (2**17 events) triggers ~a handful of young
    #: collections instead of hundreds
    THRESHOLDS = (100_000, 50, 50)

    __slots__ = ("enabled", "_saved")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._saved: tuple | None = None

    def __enter__(self) -> "gc_batched_recording":
        if self.enabled and gc.isenabled():
            self._saved = gc.get_threshold()
            gc.set_threshold(*self.THRESHOLDS)
        return self

    def __exit__(self, *exc) -> bool:
        if self._saved is not None:
            gc.set_threshold(*self._saved)
            self._saved = None
        return False

"""Request-scoped causal tracing: per-request span trees from the ring.

The fleet mints one deterministic trace ID per client session at
admission (:func:`mint_trace_id` over the session's seed and name — no
wall clock, no ambient RNG, so two seeded runs mint byte-identical IDs)
and binds it around every phase of the session with
:meth:`~repro.obs.trace.Tracer.bind`: admission, queue wait, pool
fork/scrub, scheduler placement, sandbox execution (syscall/EMC/#VE
spans inherit the binding at any depth), and the sealed channel
request/response legs. Every :class:`~repro.obs.trace.TraceEvent`
emitted inside a binding carries the ID in its ``trace`` slot.

:class:`RequestTraceIndex` groups a tracer's ring by that ID and rebuilds
each request's *causal span tree* (nesting recovered from span intervals;
instants attach to the innermost span containing them). The tree is

* retrievable by ID or session name (:meth:`RequestTraceIndex.tree`),
* renderable as an indented text tree (:meth:`render_text`) or as a
  Chrome ``trace_event`` view with **one lane per request**
  (:meth:`chrome_trace`),
* fingerprintable (:meth:`tree_digest` / :meth:`digests`): the digest
  hashes the canonical tree — names, paths, cycles, nesting — so seeded
  runs must produce byte-identical digests (CI compares two runs).

The index is a pure reader: it never touches the clock and works on any
:class:`~repro.obs.trace.Tracer` (including the flight recorder). Ring
drops are visible — :meth:`complete` checks a tree still covers the full
admission → execute → response arc, so a truncated ring is detected
rather than silently reported as a short request.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .trace import SPAN, TraceEvent, Tracer

#: hex digits in a minted trace ID
TRACE_ID_LEN = 16

#: span names that must appear in a complete session trace (in causal
#: order): admission decision, per-request execution, channel response
REQUIRED_STAGES = ("fleet:admit", "fleet:request", "channel:response")


def mint_trace_id(seed: int, name: str) -> str:
    """Deterministic request trace ID: sha256 over (seed, session name).

    Minted at admission and bound through every layer; independent of
    wall clock and of whether a tracer is armed, so arming observability
    can never change what IDs a seeded run mints.
    """
    preimage = f"erebor-trace:{seed}:{name}".encode()
    return hashlib.sha256(preimage).hexdigest()[:TRACE_ID_LEN]


def tree_digest_of(payload: list[dict]) -> str:
    """sha256 over a canonical tree payload (a list of node dicts).

    The single digest definition shared by :meth:`RequestTraceIndex.
    tree_digest` (issuer side, over live :class:`SpanNode` trees) and the
    offline certificate verifier (:mod:`repro.certs.verify`, over the
    JSON-roundtripped tree attached to a certificate). Node dicts contain
    only JSON-native types, so a dump/load roundtrip re-canonicalizes to
    the same bytes and both sides derive the same digest.
    """
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def payload_stage_names(payload: list[dict]) -> set[str]:
    """Every span/instant name in a tree payload (recursing children).

    Lets a consumer holding only the serialized tree — the offline
    certificate verifier — run the same arc-completeness check
    :meth:`RequestTraceIndex.complete` runs on live trees.
    """
    names: set[str] = set()
    stack = list(payload)
    while stack:
        node = stack.pop()
        names.add(node.get("name", ""))
        stack.extend(node.get("children", ()))
    return names


class SpanNode:
    """One node of a rebuilt causal tree."""

    __slots__ = ("name", "cat", "kind", "begin", "end", "depth", "cpu",
                 "args", "children")

    def __init__(self, event: TraceEvent):
        self.name = event.name
        self.cat = event.cat
        self.kind = event.kind
        self.begin = event.begin
        self.end = event.end
        self.depth = event.depth
        self.cpu = event.cpu
        self.args = event.args
        self.children: list[SpanNode] = []

    @property
    def duration(self) -> int:
        return self.end - self.begin

    def to_dict(self) -> dict:
        return {
            "name": self.name, "cat": self.cat, "kind": self.kind,
            "begin": self.begin, "end": self.end, "cpu": self.cpu,
            "args": {k: v for k, v in sorted(self.args.items())},
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _build_forest(events: list[TraceEvent]) -> list[SpanNode]:
    """Rebuild nesting from flat records.

    Spans are emitted at *close* (children before parents in the ring),
    but every record carries its nesting depth (= number of enclosing
    spans at emit time — the convention is identical for spans and
    instants), so exact nesting is recovered in one pass: records are
    sorted into tree order (begin asc, depth asc — parents before the
    records they enclose — instants before spans at equal depth, longest
    span first as the final tie-break) and each record attaches to the
    nearest open span that is both shallower and interval-containing.
    Instants sort *before* same-depth spans at the same cycle because
    they are siblings there: letting the span go first would pop it off
    the open stack before its own children arrived. Deterministic for
    deterministic inputs.
    """
    ordered = sorted(events, key=lambda e: (e.begin, e.depth,
                                            e.kind == SPAN, -e.end))
    roots: list[SpanNode] = []
    stack: list[SpanNode] = []
    for event in ordered:
        node = SpanNode(event)
        while stack and not _can_parent(stack[-1], node):
            stack.pop()
        (stack[-1].children if stack else roots).append(node)
        if node.kind == SPAN:
            stack.append(node)
    return roots


def _can_parent(parent: SpanNode, child: SpanNode) -> bool:
    return (parent.depth < child.depth
            and parent.begin <= child.begin
            and child.end <= parent.end)


class RequestTraceIndex:
    """Per-request view over a tracer's ring, grouped by trace ID."""

    def __init__(self, events, names: dict[str, str] | None = None):
        """``events``: any iterable of :class:`TraceEvent`; ``names``
        maps session name → trace ID (a :class:`FleetReport`'s ``traces``
        mapping) so requests resolve by either."""
        self.by_trace: dict[str, list[TraceEvent]] = {}
        for event in events:
            trace = event.trace
            if trace is None:
                continue
            self.by_trace.setdefault(trace, []).append(event)
        self.names = dict(names or {})
        self._trees: dict[str, list[SpanNode]] = {}

    @classmethod
    def from_tracer(cls, tracer: Tracer,
                    names: dict[str, str] | None = None
                    ) -> "RequestTraceIndex":
        return cls(tracer.events, names=names)

    # -- lookup ---------------------------------------------------------- #

    def ids(self) -> list[str]:
        return sorted(self.by_trace)

    def resolve(self, query: str) -> str:
        """Resolve a session name, full ID, or unique ID prefix."""
        if query in self.names:
            return self.names[query]
        if query in self.by_trace:
            return query
        matches = [t for t in self.by_trace if t.startswith(query)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise KeyError(f"trace prefix {query!r} is ambiguous: "
                           f"{', '.join(sorted(matches))}")
        raise KeyError(f"no trace matches {query!r} "
                       f"(known: {', '.join(self.ids()) or 'none'})")

    def session_for(self, trace_id: str) -> str | None:
        for name, tid in self.names.items():
            if tid == trace_id:
                return name
        return None

    def events(self, query: str) -> list[TraceEvent]:
        return list(self.by_trace[self.resolve(query)])

    # -- trees ----------------------------------------------------------- #

    def tree(self, query: str) -> list[SpanNode]:
        """The request's causal forest (usually: admit, then the session
        arc), rebuilt from intervals and cached."""
        trace_id = self.resolve(query)
        forest = self._trees.get(trace_id)
        if forest is None:
            forest = self._trees[trace_id] = _build_forest(
                self.by_trace[trace_id])
        return forest

    def complete(self, query: str) -> bool:
        """Does the tree still cover the full causal arc?

        Checks the stages every served session must show — admission
        decision, at least one executed request, and a sealed channel
        response — so a ring that dropped the session's early records
        reads as *incomplete* instead of silently truncated.
        """
        names = {node.name for root in self.tree(query)
                 for node in root.walk()}
        return all(stage in names for stage in REQUIRED_STAGES)

    def tree_payload(self, query: str) -> list[dict]:
        """The canonical (JSON-native) form of one request's tree.

        This is what execution certificates attach as trace evidence:
        hashable via :func:`tree_digest_of` on either side of the wire.
        """
        return [node.to_dict() for node in self.tree(query)]

    def tree_digest(self, query: str) -> str:
        """sha256 over the canonical tree (names, cycles, nesting)."""
        return tree_digest_of(self.tree_payload(query))

    def digests(self) -> dict[str, str]:
        """``trace_id → tree digest`` for every request in the index.

        Two seeded runs must produce byte-identical mappings (the CI
        reqtrace smoke job serializes and compares them).
        """
        return {tid: self.tree_digest(tid) for tid in self.ids()}

    # -- rendering ------------------------------------------------------- #

    def render_text(self, query: str) -> str:
        """Indented text tree of one request (cycles, cores, key args)."""
        trace_id = self.resolve(query)
        session = self.session_for(trace_id)
        head = f"trace {trace_id}"
        if session:
            head += f" ({session})"
        lines = [head]
        for root in self.tree(trace_id):
            _render_node(root, lines, "")
        if not self.complete(trace_id):
            lines.append("  [incomplete: ring dropped part of this "
                         "request's history]")
        return "\n".join(lines)

    def chrome_trace(self, query: str | None = None) -> dict:
        """Chrome ``trace_event`` view, **one thread lane per request**.

        With ``query`` the view contains just that request; without it,
        every indexed request gets its own lane (sorted by ID), which is
        the fleet-wide per-request timeline the CLI's ``--trace-out``
        writes.
        """
        from .export import chrome_events   # late: export imports hw.cycles

        trace_ids = ([self.resolve(query)] if query is not None
                     else self.ids())
        lanes = {}
        for lane, trace_id in enumerate(trace_ids, start=1):
            session = self.session_for(trace_id)
            lanes[lane] = (f"{session} [{trace_id[:8]}]" if session
                           else trace_id[:TRACE_ID_LEN])
        records = ((lane, e)
                   for lane, trace_id in enumerate(trace_ids, start=1)
                   for e in self.by_trace[trace_id])
        return {"traceEvents": chrome_events("erebor-requests", lanes,
                                             records, cpu_arg=True),
                "displayTimeUnit": "ms",
                "otherData": {"clock": "simulated-cycles",
                              "lanes": "one-per-request"}}

    def write_chrome_trace(self, path: str | Path,
                           query: str | None = None) -> dict:
        trace = self.chrome_trace(query)
        Path(path).write_text(json.dumps(trace))
        return trace

    def summary(self) -> dict:
        """Per-request event counts + completeness (JSON-able)."""
        return {
            tid: {
                "session": self.session_for(tid),
                "events": len(self.by_trace[tid]),
                "complete": self.complete(tid),
            }
            for tid in self.ids()
        }

    def __repr__(self) -> str:
        return (f"RequestTraceIndex({len(self.by_trace)} requests, "
                f"{sum(len(v) for v in self.by_trace.values())} events)")


def _render_node(node: SpanNode, lines: list[str], indent: str) -> None:
    where = f" cpu{node.cpu}" if node.cpu is not None else ""
    if node.kind == SPAN:
        desc = (f"{indent}{node.name}  [{node.begin:,} → {node.end:,}] "
                f"{node.duration:,}cy{where}")
    else:
        desc = f"{indent}· {node.name}  @{node.begin:,}{where}"
    extras = {k: v for k, v in node.args.items()
              if k in ("session", "tenant", "reason", "outcome", "detail",
                       "start_kind", "index", "why")}
    if extras:
        desc += "  " + " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
    lines.append(desc)
    for child in node.children:
        _render_node(child, lines, indent + "  ")

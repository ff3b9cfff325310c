"""Abstract-interpretation dataflow plane — checks V8–V10.

Prong 1's :mod:`repro.analysis.verifier` proves *structural* properties
(V0–V7: entry shape, W^X, gate-site templates, thunk liveness) over the
CFGs it recovers.  This module adds the *semantic* layer on top of those
same CFGs: a deterministic worklist fixpoint over a join-semilattice
abstract domain, in the tradition of sound binary dataflow verifiers
(Cabin-style up-front confinement of untrusted programs; TME-Box-style
compile-time SFI validation), proving before the first instruction runs:

========  =================  =============================================
Check     Name               Property
========  =================  =============================================
``V8``    sensitive-taint    no value tainted by a ``SEC_SENSITIVE``
                             section (or, in a secret-bearing image, by an
                             unprovable load) reaches an EMC gate argument
                             register (``rdi``/``rsi``/``rdx``/``r8``) at
                             a V3-verified ``icall`` site without first
                             passing a recognized scrub (constant
                             overwrite or ``xor r, r``)
``V9``    stack-balance      per-function push/pop balance on every path:
                             no underflow, no over-cap growth, depth 0 at
                             every ``ret``, and equal depths where paths
                             join — the static image of the hardware
                             shadow-stack discipline (``call`` pushes the
                             return address on the *same* stack, so any
                             net explicit push corrupts the return)
``V10``   static-budget      sound worst-case EMC-invocation and
                             synchronous-exit counts per activation,
                             folded over the call graph (Tarjan SCC +
                             condensation longest path); a cycle or
                             recursion through a weighted block makes the
                             budget *unbounded* and the image rejectable
========  =================  =============================================

The fold's output is a :class:`StaticBudget` artifact: per-activation
counts plus floor-cost *rate* bounds (events per 1000 cycles, derived
from the calibrated :class:`~repro.hw.cycles.Cost` floors), which
:mod:`repro.fleet.admission` consumes to derive and cross-check
``TenantQuota`` values at admit time.

Everything here is deterministic: the worklist pops the smallest VA,
joins are commutative/associative/idempotent (property-tested), and the
:class:`DataflowReport` serializes to canonical JSON whose sha256 digest
is extended into RTMR[3] next to the V0–V7 digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..emc_abi import ENTRY_GATE_VA
from ..hw.cycles import Cost
from ..hw.isa import INSTR_SIZE, REG_INDEX, REGISTERS, Instr
from ..kernel.image import SEC_SENSITIVE, Section, SelfImage
from .cfg import BasicBlock, CfgDecodeError, ControlFlowGraph, build_cfg
from .verifier import Finding, Report

#: check id -> short name (disjoint from ``verifier.CHECKS``; V0–V7 digests
#: are unchanged by this plane's existence)
DATAFLOW_CHECKS = {
    "V8": "sensitive-taint",
    "V9": "stack-balance",
    "V10": "static-budget",
}

#: EMC ABI argument registers (call number + 3 args) — the V8 sinks
EMC_ARG_REGS = ("rdi", "rsi", "rdx", "r8")

#: opcodes that leave the guest synchronously (V10 "exit" weight); the
#: raw sensitive ops (wrmsr/tdcall/…) never appear post-instrumentation —
#: V6 rejects them — so the exit surface of a verified image is exactly
#: this set plus the EMC gate itself, which is metered separately
EXIT_OPS = frozenset({"syscall", "int", "cpuid", "rdmsr", "senduipi"})

#: floor cycle cost per exit opcode — used for the sound *rate* bound:
#: every runtime occurrence charges at least this many cycles, so
#: ``1000 / floor`` bounds events-per-kcycle from above
_EXIT_FLOOR = {
    "syscall": Cost.SYSCALL_ROUND_TRIP,
    "int": Cost.EXC_DELIVERY,
    "cpuid": Cost.CPUID_NATIVE,
    "rdmsr": Cost.RDMSR,
    "senduipi": Cost.ALU,
}

#: floor cycle cost of one EMC gate invocation (icall + measured round
#: trip; runtime adds per-call validation and the uarch flush model, so
#: the true per-event cost is strictly larger — the bound stays sound)
EMC_FLOOR_CYCLES = Cost.ICALL + Cost.EMC_ROUND_TRIP

#: abstract stack depth cap: deeper growth on any path is a V9 finding
#: (the simulated kernel stack is one page; 64 slots of 8 bytes is half
#: of it, and no benign image comes close)
STACK_CAP = 64

# --- taint lattice ------------------------------------------------------
#: CLEAN < TAINTED; join is max.  (Bottom never materializes at the value
#: level — abstract states exist only for reachable paths.)
CLEAN = 0
TAINTED = 1

#: registers overwritten with non-secret machine state by exit-class ops
#: (per :mod:`repro.hw.cpu` semantics) — modelled as fresh CLEAN unknowns
_OP_CLOBBERS = {
    "cpuid": ("rax", "rbx", "rcx", "rdx"),
    "rdmsr": ("rax",),
    "syscall": ("rax", "rcx"),
}


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: a taint bit and an optional known constant.

    The product lattice point ``(taint, const)``: ``taint`` is CLEAN or
    TAINTED (join = max); ``const`` is a known 64-bit value or ``None``
    for unknown/top (join = keep if equal, else ``None``).
    """

    taint: int = CLEAN
    const: int | None = None

    def join(self, other: "AbsVal") -> "AbsVal":
        return AbsVal(max(self.taint, other.taint),
                      self.const if self.const == other.const else None)

    def leq(self, other: "AbsVal") -> bool:
        """Partial order: ``self`` is at least as precise as ``other``."""
        return (self.taint <= other.taint
                and (other.const is None or other.const == self.const))


#: the two distinguished unknowns
UNKNOWN_CLEAN = AbsVal(CLEAN, None)
UNKNOWN_TAINTED = AbsVal(TAINTED, None)


@dataclass(frozen=True)
class AbsState:
    """Abstract machine state at a program point.

    ``regs`` is a 16-tuple indexed like :data:`repro.hw.isa.REGISTERS`;
    ``stack`` models the explicit push/pop stack of the *current frame*
    (call edges enter the callee with a fresh empty frame, mirroring the
    hardware shadow stack's per-call discipline).
    """

    regs: tuple[AbsVal, ...]
    stack: tuple[AbsVal, ...] = ()

    def reg(self, name: str) -> AbsVal:
        return self.regs[REG_INDEX[name]]

    def set_reg(self, name: str, val: AbsVal) -> "AbsState":
        regs = list(self.regs)
        regs[REG_INDEX[name]] = val
        return AbsState(tuple(regs), self.stack)

    def join(self, other: "AbsState") -> "AbsState | None":
        """Pointwise join; ``None`` when stack depths disagree (a V9
        conflict the engine records instead of inventing a depth)."""
        if len(self.stack) != len(other.stack):
            return None
        return AbsState(
            tuple(a.join(b) for a, b in zip(self.regs, other.regs)),
            tuple(a.join(b) for a, b in zip(self.stack, other.stack)))

    def leq(self, other: "AbsState") -> bool:
        if len(self.stack) != len(other.stack):
            return False
        return (all(a.leq(b) for a, b in zip(self.regs, other.regs))
                and all(a.leq(b) for a, b in zip(self.stack, other.stack)))


def entry_state() -> AbsState:
    """State at the image entry: registers clean and unknown."""
    return AbsState(tuple(UNKNOWN_CLEAN for _ in REGISTERS))


def conservative_state(has_secrets: bool) -> AbsState:
    """State at an indirectly-reachable root (``endbr`` pad): in a
    secret-bearing image every register may already hold a secret."""
    top = UNKNOWN_TAINTED if has_secrets else UNKNOWN_CLEAN
    return AbsState(tuple(top for _ in REGISTERS))


@dataclass(frozen=True)
class AnalysisContext:
    """Per-image facts the transfer function consults."""

    #: [start, end) VA ranges of ``SEC_SENSITIVE`` sections
    sensitive_ranges: tuple[tuple[int, int], ...] = ()
    #: VAs of ``icall`` sites whose resolved target is the EMC gate
    gate_site_vas: frozenset[int] = frozenset()
    #: does the image carry secrets at all? (drives the sound default for
    #: loads whose address the constant domain cannot prove)
    has_secrets: bool = False

    def load_taint(self, addr: int | None) -> int:
        if addr is None:
            return TAINTED if self.has_secrets else CLEAN
        for lo, hi in self.sensitive_ranges:
            if lo <= addr < hi:
                return TAINTED
        return CLEAN


_MASK64 = (1 << 64) - 1

_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "mul": lambda a, b: a * b,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
}


def transfer_instr(instr: Instr, va: int, state: AbsState,
                   ctx: AnalysisContext) -> AbsState:
    """Abstract semantics of one instruction (pure; monotone in
    ``state`` — property-tested in ``tests/analysis/test_absint.py``).

    Findings are *not* emitted here: the check pass replays blocks with
    this same function and inspects ``(instr, state)`` pairs, so the
    fixpoint and the verdicts can never disagree.
    """
    op = instr.op
    if op == "movi":
        return state.set_reg(instr.dst, AbsVal(CLEAN, instr.imm & _MASK64))
    if op == "mov":
        return state.set_reg(instr.dst, state.reg(instr.src))
    if op == "load":
        base = state.reg(instr.src).const
        addr = None if base is None else (base + instr.imm) & _MASK64
        return state.set_reg(instr.dst, AbsVal(ctx.load_taint(addr), None))
    if op == "gsload":
        # per-CPU scratch: monitor-owned, never secret-bearing
        return state.set_reg(instr.dst, UNKNOWN_CLEAN)
    if op == "push":
        if len(state.stack) >= STACK_CAP:      # overflow: V9 flags it; the
            return state                       # abstract stack stays capped
        return AbsState(state.regs, state.stack + (state.reg(instr.dst),))
    if op == "pop":
        if not state.stack:                    # underflow: V9 flags it; the
            top = (UNKNOWN_TAINTED if ctx.has_secrets  # popped value is an
                   else UNKNOWN_CLEAN)         # unknown of the image's kind
            return state.set_reg(instr.dst, top)
        return AbsState(
            state.set_reg(instr.dst, state.stack[-1]).regs, state.stack[:-1])
    if op == "xor" and instr.dst == instr.src:
        # self-xor: the canonical scrub — always zero, always clean
        return state.set_reg(instr.dst, AbsVal(CLEAN, 0))
    if op in _BINOPS:
        d, s = state.reg(instr.dst), state.reg(instr.src)
        const = None
        if d.const is not None and s.const is not None:
            const = _BINOPS[op](d.const, s.const) & _MASK64
        return state.set_reg(instr.dst, AbsVal(max(d.taint, s.taint), const))
    if op == "div":
        d, s = state.reg(instr.dst), state.reg(instr.src)
        const = None
        if d.const is not None and s.const not in (None, 0):
            const = (d.const // s.const) & _MASK64
        return state.set_reg(instr.dst, AbsVal(max(d.taint, s.taint), const))
    if op == "addi":
        d = state.reg(instr.dst)
        const = None if d.const is None else (d.const + instr.imm) & _MASK64
        return state.set_reg(instr.dst, AbsVal(d.taint, const))
    if op == "rdcr":
        return state.set_reg(instr.dst, UNKNOWN_CLEAN)
    if op == "icall" and va in ctx.gate_site_vas:
        # the monitor's return value rides in rax; callee-saved discipline
        # for the rest is V7's template guarantee (pops restore them)
        return state.set_reg("rax", UNKNOWN_CLEAN)
    if op in _OP_CLOBBERS:
        for reg in _OP_CLOBBERS[op]:
            state = state.set_reg(reg, UNKNOWN_CLEAN)
        return state
    # nop/fence/endbr/cmp/cmpi/store/gsstore/branches/call/ret/...:
    # no abstract register or stack effect (call transparency across the
    # fall edge is the same assumption V7 justifies for thunks; flags are
    # not tracked — both branch successors are explored)
    return state


def transfer_block(block: BasicBlock, state: AbsState,
                   ctx: AnalysisContext) -> AbsState:
    va = block.va
    for instr in block.instrs:
        state = transfer_instr(instr, va, state, ctx)
        va += INSTR_SIZE
    return state


# --- deterministic worklist fixpoint ------------------------------------

@dataclass
class FixpointResult:
    """Fixpoint of one section's CFG.

    ``in_states`` maps block VA → joined entry state for every reachable
    block; ``join_conflicts`` records the first stack-depth disagreement
    seen per block (V9 material); ``iterations`` counts worklist pops —
    identical across reruns by construction.
    """

    in_states: dict[int, AbsState] = field(default_factory=dict)
    join_conflicts: dict[int, tuple[int, int]] = field(default_factory=dict)
    iterations: int = 0


def successor_states(cfg: ControlFlowGraph, block: BasicBlock,
                     out_state: AbsState) -> list[tuple[int, AbsState]]:
    """(dst VA, propagated state) pairs for one block's out-edges.

    Call-like edges (``call``, and ``indirect`` edges sourced from an
    ``icall``) enter the callee with a fresh empty frame — the hardware
    pushes the return address there, and V9's per-function discipline
    starts at depth 0.  Everything else propagates the state as-is.
    """
    last_op = block.instrs[-1].op if block.instrs else "nop"
    fresh = AbsState(out_state.regs, ())
    out = []
    for edge in cfg.edges:
        if edge.src != block.va:
            continue
        call_like = (edge.kind == "call"
                     or (edge.kind == "indirect" and last_op == "icall"))
        out.append((edge.dst, fresh if call_like else out_state))
    return out


def run_fixpoint(cfg: ControlFlowGraph, roots: dict[int, AbsState],
                 ctx: AnalysisContext) -> FixpointResult:
    """Worklist fixpoint; deterministic (always pops the smallest VA).

    Termination: the taint chain has height 2, constants collapse to
    ``None`` on first disagreement, the abstract stack is capped, and a
    depth mismatch is *recorded* (not joined) — so every program point's
    state ascends a finite lattice a finite number of times.
    """
    result = FixpointResult()
    pending: set[int] = set()
    for va, state in sorted(roots.items()):
        if va in cfg.blocks:
            result.in_states[va] = state
            pending.add(va)
    while pending:
        va = min(pending)
        pending.discard(va)
        result.iterations += 1
        block = cfg.blocks[va]
        out_state = transfer_block(block, result.in_states[va], ctx)
        for dst, state in successor_states(cfg, block, out_state):
            if dst not in cfg.blocks:
                continue                      # out-of-section (e.g. gate)
            known = result.in_states.get(dst)
            if known is None:
                result.in_states[dst] = state
                pending.add(dst)
                continue
            joined = known.join(state)
            if joined is None:
                result.join_conflicts.setdefault(
                    dst, (len(known.stack), len(state.stack)))
                continue
            if not joined.leq(known):
                result.in_states[dst] = joined
                pending.add(dst)
    return result


# --- V10: static budget fold --------------------------------------------

@dataclass(frozen=True)
class StaticBudget:
    """Per-image worst-case EMC/exit bounds, proven over the call graph.

    ``emc_per_activation`` / ``exits_per_activation`` are sound maxima
    over any single entry-to-terminator activation of any root (``None``
    = unbounded: a weighted cycle or recursion was found, and V10
    rejects the image).  The ``*_per_kcycle`` rates are floor-cost
    density bounds — each event charges at least its calibrated floor,
    so observed rates on *any* run can never exceed them — and are what
    :mod:`repro.fleet.admission` compares against runtime meters.
    """

    image: str
    emc_per_activation: int | None
    exits_per_activation: int | None
    emc_per_kcycle: float
    exits_per_kcycle: float
    #: per-function rows: (entry VA, emc bound, exit bound)
    functions: tuple[tuple[int, int | None, int | None], ...] = ()

    @property
    def bounded(self) -> bool:
        return (self.emc_per_activation is not None
                and self.exits_per_activation is not None)

    def max_emc_per_request(self, activations: int) -> int | None:
        """EMC ceiling for a request modelled as N image activations."""
        if self.emc_per_activation is None:
            return None
        return self.emc_per_activation * max(1, activations)

    def as_dict(self) -> dict:
        return {
            "image": self.image,
            "emc_per_activation": self.emc_per_activation,
            "exits_per_activation": self.exits_per_activation,
            "emc_per_kcycle": self.emc_per_kcycle,
            "exits_per_kcycle": self.exits_per_kcycle,
            "functions": [
                {"va": va, "emc": emc, "exits": exits}
                for va, emc, exits in self.functions],
        }


def _tarjan_sccs(nodes: list[int],
                 succs: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan; SCCs in deterministic (reverse-topological)
    order given the sorted node/successor lists it is fed."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succs.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(succs.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


class _BudgetFold:
    """Fold per-block EMC/exit weights over the call graph of one CFG.

    Per function (call-graph node): restrict to blocks reachable from
    the entry via intra edges, collapse SCCs (Tarjan), and take the
    longest path through the condensation weighted by block weight plus
    callee summaries.  A weighted SCC or recursion yields ``None``
    (unbounded) with a localized finding offset.
    """

    def __init__(self, cfg: ControlFlowGraph, ctx: AnalysisContext):
        self.cfg = cfg
        self.ctx = ctx
        self.intra: dict[int, list[int]] = {}
        self.calls: dict[int, list[int]] = {}
        for edge in sorted(cfg.edges, key=lambda e: (e.src, e.dst)):
            src_block = cfg.blocks.get(edge.src)
            last_op = (src_block.instrs[-1].op
                       if src_block and src_block.instrs else "nop")
            call_like = (edge.kind == "call"
                         or (edge.kind == "indirect" and last_op == "icall"))
            bucket = self.calls if call_like else self.intra
            if edge.dst in cfg.blocks:
                bucket.setdefault(edge.src, []).append(edge.dst)
        self._memo: dict[tuple[int, str], tuple[int | None, int | None]] = {}

    def block_weight(self, block: BasicBlock, metric: str) -> int:
        va, weight = block.va, 0
        for instr in block.instrs:
            if metric == "emc":
                if instr.op == "icall" and va in self.ctx.gate_site_vas:
                    weight += 1
            elif instr.op in EXIT_OPS:
                weight += 1
            va += INSTR_SIZE
        return weight

    def function_blocks(self, entry: int) -> list[int]:
        seen, todo = {entry}, [entry]
        while todo:
            va = todo.pop()
            for succ in self.intra.get(va, ()):
                if succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
        return sorted(seen)

    def summarize(self, entry: int, metric: str,
                  visiting: tuple[int, ...] = ()
                  ) -> tuple[int | None, int | None]:
        """(bound, unbounded-locus VA): bound ``None`` if a weighted
        cycle or recursion makes the count unbounded."""
        key = (entry, metric)
        if key in self._memo:
            return self._memo[key]
        if entry in visiting:
            # recursion: unbounded only if the cycle carries weight —
            # resolved by the caller seeing its own weighted path; here
            # report unbounded conservatively with the entry as locus
            return (None, entry)
        visiting = visiting + (entry,)
        blocks = self.function_blocks(entry)
        totals: dict[int, int | None] = {}
        locus: int | None = None
        for va in blocks:
            block = self.cfg.blocks[va]
            total: int | None = self.block_weight(block, metric)
            for callee in self.calls.get(va, ()):
                sub, sub_locus = self.summarize(callee, metric, visiting)
                if sub is None:
                    if self.block_weight(block, metric) or sub_locus != callee:
                        total = None
                        locus = locus if locus is not None else (
                            sub_locus if sub_locus is not None else va)
                    else:
                        # pure recursion with zero weight everywhere on
                        # the cycle is still bounded at 0 — but proving
                        # that needs the full cycle; stay conservative
                        total = None
                        locus = locus if locus is not None else va
                elif total is not None:
                    total += sub
            totals[va] = total
        sccs = _tarjan_sccs(blocks, self.intra)
        scc_of: dict[int, int] = {}
        for i, scc in enumerate(sccs):
            for va in scc:
                scc_of[va] = i
        for i, scc in enumerate(sccs):
            cyclic = len(scc) > 1 or scc[0] in self.intra.get(scc[0], ())
            weight = 0
            unbounded = any(totals[va] is None for va in scc)
            if not unbounded:
                weight = sum(totals[va] for va in scc)      # type: ignore
            if unbounded or (cyclic and weight > 0):
                result = (None, locus if locus is not None else scc[0])
                self._memo[key] = result
                return result
        # condensation longest path (Tarjan order is reverse-topological)
        scc_weight = [sum(totals[va] for va in scc)          # type: ignore
                      for scc in sccs]
        best: list[int] = [0] * len(sccs)
        for i in range(len(sccs)):                # reverse-topo: succs first
            succ_best = 0
            for va in sccs[i]:
                for dst in self.intra.get(va, ()):
                    j = scc_of[dst]
                    if j != i:
                        succ_best = max(succ_best, best[j])
            best[i] = scc_weight[i] + succ_best
        bound = best[scc_of[entry]] if entry in scc_of else 0
        result = (bound, None)
        self._memo[key] = result
        return result


def _rate_bound(present_floors: list[int]) -> float:
    """Events-per-kcycle upper bound from the cheapest floor present."""
    if not present_floors:
        return 0.0
    return round(1000.0 / min(present_floors), 6)


# --- report -------------------------------------------------------------

@dataclass
class DataflowReport(Report):
    """Outcome of the dataflow plane over one image.

    A :class:`~repro.analysis.verifier.Report` over
    :data:`DATAFLOW_CHECKS`, so the V0–V7 digest is untouched and the
    two planes extend RTMR[3] as separate preimages.
    """

    CHECKS: ClassVar[dict[str, str]] = DATAFLOW_CHECKS

    image: str
    entry: int
    gate_va: int
    instructions: int
    blocks: int
    blocks_analyzed: int
    gate_sites: int
    roots: int
    iterations: int
    sensitive_sections: list[str]
    budget: StaticBudget | None
    findings: list[Finding] = field(default_factory=list)

    def span_args(self) -> dict:
        return {"instructions": self.instructions,
                "iterations": self.iterations}

    def summary(self) -> str:
        return (f"(emc<={self.budget.emc_per_activation}, "
                f"exits<={self.budget.exits_per_activation} per activation)")

    def as_dict(self) -> dict:
        return {
            "image": self.image,
            "entry": self.entry,
            "gate_va": self.gate_va,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "blocks_analyzed": self.blocks_analyzed,
            "gate_sites": self.gate_sites,
            "roots": self.roots,
            "iterations": self.iterations,
            "sensitive_sections": list(self.sensitive_sections),
            "budget": self.budget.as_dict() if self.budget else None,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }


# --- the verifier -------------------------------------------------------

class DataflowVerifier:
    """Run the V8–V10 dataflow plane over a SELF image.

    Reads the same memoized CFGs prong 1 verifies, after it in
    :mod:`repro.analysis.pipeline`, but is standalone-safe: an
    undecodable section is a V10 finding (no sound budget can be proven
    for it).
    """

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _sensitive_ranges(image: SelfImage) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(
            (sec.va, sec.va + len(sec.data))
            for sec in image.sections if sec.flags & SEC_SENSITIVE))

    @staticmethod
    def _roots(cfg: ControlFlowGraph, section: Section, entry: int,
               ctx: AnalysisContext) -> dict[int, AbsState]:
        roots: dict[int, AbsState] = {}
        if entry in cfg.blocks:
            roots[entry] = entry_state()
        conservative = conservative_state(ctx.has_secrets)
        for va, block in sorted(cfg.blocks.items()):
            if block.instrs and block.instrs[0].op == "endbr" and va != entry:
                roots.setdefault(va, conservative)
        return roots

    # -- per-check passes ------------------------------------------------

    def _check_block(self, cfg: ControlFlowGraph, section: Section,
                     block: BasicBlock, in_state: AbsState,
                     ctx: AnalysisContext, findings: list[Finding]) -> None:
        """Replay one reachable block, emitting V8/V9 findings."""
        state, va = in_state, block.va
        for instr in block.instrs:
            offset = va - section.va
            if instr.op == "icall" and va in ctx.gate_site_vas:
                tainted = [r for r in EMC_ARG_REGS
                           if state.reg(r).taint == TAINTED]
                if tainted:
                    findings.append(Finding(
                        "V8", section.name, offset,
                        f"tainted value reaches EMC gate argument "
                        f"register(s) {', '.join(tainted)} at icall site "
                        f"+0x{offset:x} without a recognized scrub"))
            if instr.op == "pop" and not state.stack:
                findings.append(Finding(
                    "V9", section.name, offset,
                    f"pop at +0x{offset:x} underflows the frame stack "
                    f"on a reachable path (shadow-stack corruption)"))
            if instr.op == "push" and len(state.stack) >= STACK_CAP:
                findings.append(Finding(
                    "V9", section.name, offset,
                    f"push at +0x{offset:x} exceeds the {STACK_CAP}-slot "
                    f"frame cap on a reachable path"))
            if instr.op == "ret" and state.stack:
                findings.append(Finding(
                    "V9", section.name, offset,
                    f"ret at +0x{offset:x} with {len(state.stack)} "
                    f"unbalanced push(es) live — the popped return "
                    f"address cannot match the shadow stack"))
            state = transfer_instr(instr, va, state, ctx)
            va += INSTR_SIZE

    # -- entry point -----------------------------------------------------

    def verify_image(self, image: SelfImage) -> DataflowReport:
        sensitive_ranges = self._sensitive_ranges(image)
        sensitive_names = sorted(
            sec.name for sec in image.sections if sec.flags & SEC_SENSITIVE)
        findings: list[Finding] = []
        instructions = blocks = blocks_analyzed = 0
        gate_sites = roots_total = iterations = 0
        budgets: list[tuple[int | None, int | None]] = []
        per_function: list[tuple[int, int | None, int | None]] = []
        exit_floors: list[int] = []

        for section in image.sections:
            if not section.executable:
                continue
            try:
                cfg = build_cfg(section.data, section.va)
            except CfgDecodeError as exc:
                findings.append(Finding(
                    "V10", section.name, getattr(exc, "offset", 0),
                    f"section not decodable ({exc}); no sound static "
                    f"budget can be proven"))
                continue
            instructions += len(cfg.instrs)
            blocks += len(cfg.blocks)
            exit_floors.extend(_EXIT_FLOOR[i.op] for i in cfg.instrs
                               if i.op in EXIT_OPS)
            ctx = AnalysisContext(
                sensitive_ranges=sensitive_ranges,
                gate_site_vas=frozenset(
                    site.va for site in cfg.indirect_sites
                    if site.op == "icall" and site.target == ENTRY_GATE_VA),
                has_secrets=bool(sensitive_ranges))
            gate_sites += len(ctx.gate_site_vas)
            roots = self._roots(cfg, section, image.entry, ctx)
            roots_total += len(roots)
            fix = run_fixpoint(cfg, roots, ctx)
            iterations += fix.iterations
            blocks_analyzed += len(fix.in_states)

            # V8 + V9 (intra-block) over every reachable block
            for va in sorted(fix.in_states):
                self._check_block(cfg, section, cfg.blocks[va],
                                  fix.in_states[va], ctx, findings)
            # V9: join-depth conflicts
            for va in sorted(fix.join_conflicts):
                a, b = fix.join_conflicts[va]
                findings.append(Finding(
                    "V9", section.name, va - section.va,
                    f"paths join at +0x{va - section.va:x} with unequal "
                    f"frame depths ({a} vs {b}) — push/pop balance "
                    f"differs across predecessors"))

            # V10: fold the budget over this section's call graph
            fold = _BudgetFold(cfg, ctx)
            for root in sorted(roots):
                emc, emc_locus = fold.summarize(root, "emc")
                exits, exit_locus = fold.summarize(root, "exit")
                per_function.append((root, emc, exits))
                budgets.append((emc, exits))
                for bound, locus, what in ((emc, emc_locus, "EMC"),
                                           (exits, exit_locus, "exit")):
                    if bound is None:
                        at = locus if locus is not None else root
                        findings.append(Finding(
                            "V10", section.name, at - section.va,
                            f"{what} count from root +0x{root - section.va:x}"
                            f" is unbounded (weighted cycle or recursion "
                            f"through +0x{at - section.va:x})"))

        emc_bound: int | None = 0
        exit_bound: int | None = 0
        for emc, exits in budgets:
            emc_bound = (None if emc_bound is None or emc is None
                         else max(emc_bound, emc))
            exit_bound = (None if exit_bound is None or exits is None
                          else max(exit_bound, exits))
        budget = StaticBudget(
            image=image.name,
            emc_per_activation=emc_bound,
            exits_per_activation=exit_bound,
            emc_per_kcycle=(_rate_bound([EMC_FLOOR_CYCLES])
                            if gate_sites else 0.0),
            exits_per_kcycle=_rate_bound(exit_floors),
            functions=tuple(sorted(per_function)))

        findings.sort(key=lambda f: (int(f.check[1:]), f.section, f.offset,
                                     f.detail))
        return DataflowReport(
            image=image.name, entry=image.entry, gate_va=ENTRY_GATE_VA,
            instructions=instructions, blocks=blocks,
            blocks_analyzed=blocks_analyzed, gate_sites=gate_sites,
            roots=roots_total, iterations=iterations,
            sensitive_sections=sensitive_names, budget=budget,
            findings=findings)

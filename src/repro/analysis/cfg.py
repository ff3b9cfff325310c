"""Control-flow-graph recovery over the fixed-width simulated ISA.

The ISA encodes every instruction in exactly :data:`~repro.hw.isa.INSTR_SIZE`
bytes, so disassembly is total: every aligned offset either decodes or is a
hard error (there is no self-synchronizing ambiguity as on x86 — which is
precisely why the paper's byte-scan has to check *every* offset, and why the
CFG pass can afford to be exact).

Classification (mirrors what :class:`repro.hw.cpu.Cpu` executes):

* ``jmp`` / ``jz`` / ``jnz`` / ``call`` — direct edges to ``imm``
  (conditionals and calls also fall through);
* ``icall`` / ``ijmp`` — indirect sites: no static edge unless the target
  is recoverable from a ``movi rX, imm`` immediately before the branch
  (the only pattern the instrumentation pass emits);
* ``ret`` / ``hlt`` / ``sysret`` / ``iret`` — terminators (no successor
  inside the section).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..hw.errors import InvalidOpcode
from ..hw.isa import INSTR_SIZE, Instr, decode

#: direct-branch mnemonics and whether each falls through to the next slot
DIRECT_BRANCHES = {"jmp": False, "jz": True, "jnz": True, "call": True}
#: indirect control transfers (target in a register; IBT-checked at runtime)
INDIRECT_BRANCHES = frozenset({"icall", "ijmp"})
#: instructions after which execution never reaches the next slot
TERMINATORS = frozenset({"ret", "hlt", "sysret", "iret"})


@dataclass(frozen=True)
class Edge:
    """One CFG edge between block start VAs."""

    src: int
    dst: int
    kind: str        # "jump" | "branch" | "fall" | "call" | "indirect"


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run."""

    va: int
    instrs: list[Instr] = field(default_factory=list)

    @property
    def end_va(self) -> int:
        return self.va + len(self.instrs) * INSTR_SIZE

    @property
    def last(self) -> Instr:
        return self.instrs[-1]

    def __len__(self) -> int:
        return len(self.instrs)


@dataclass
class IndirectSite:
    """One ``icall``/``ijmp`` with its statically-known target, if any.

    ``target`` is recovered from the ``movi rX, imm; icall rX`` peephole
    the instrumentation pass emits; ``None`` means the target register is
    not a visible constant and only runtime IBT can police the landing.
    """

    va: int
    op: str                 # "icall" | "ijmp"
    reg: str
    target: int | None


@dataclass
class ControlFlowGraph:
    """Recovered CFG of one executable section."""

    section_va: int
    instrs: list[Instr]
    blocks: dict[int, BasicBlock]
    edges: list[Edge]
    indirect_sites: list[IndirectSite]

    @property
    def section_end(self) -> int:
        return self.section_va + len(self.instrs) * INSTR_SIZE

    def instr_at(self, va: int) -> Instr | None:
        off = va - self.section_va
        if off < 0 or off % INSTR_SIZE or off >= len(self.instrs) * INSTR_SIZE:
            return None
        return self.instrs[off // INSTR_SIZE]

    def contains(self, va: int) -> bool:
        return self.section_va <= va < self.section_end

    def aligned(self, va: int) -> bool:
        return (va - self.section_va) % INSTR_SIZE == 0

    def reachable_from(self, entry: int) -> set[int]:
        """Block VAs reachable from ``entry`` along recovered edges."""
        out: dict[int, list[int]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e.dst)
        seen: set[int] = set()
        work = [entry] if entry in self.blocks else []
        while work:
            va = work.pop()
            if va in seen:
                continue
            seen.add(va)
            work.extend(d for d in out.get(va, ()) if d in self.blocks)
        return seen


class CfgDecodeError(InvalidOpcode):
    """The section is not a clean aligned instruction stream."""

    def __init__(self, offset: int, description: str):
        self.offset = offset
        super().__init__(description)


def decode_section(data: bytes, va: int) -> list[Instr]:
    """Decode a whole section as aligned instructions (total or raise)."""
    if len(data) % INSTR_SIZE:
        raise CfgDecodeError(
            len(data) - len(data) % INSTR_SIZE,
            f"section length {len(data)} not a multiple of {INSTR_SIZE}")
    instrs = []
    for off in range(0, len(data), INSTR_SIZE):
        try:
            instrs.append(decode(data, off))
        except InvalidOpcode as exc:
            raise CfgDecodeError(off, f"undecodable slot at {va + off:#x}: "
                                 f"{exc.description}") from exc
    return instrs


@lru_cache(maxsize=32)
def build_cfg(data: bytes, va: int) -> ControlFlowGraph:
    """Recover the CFG of one executable section.

    Memoized per ``(data, va)``, the way :func:`~repro.analysis.thunks.
    thunk_templates` is: both boot-time passes read one decode of each
    section, so callers must treat the returned graph as read-only.

    Block leaders are the section start, every direct branch target that
    lands in-section and aligned (out-of-range targets are left to the
    verifier's V1 check — they simply produce no block), and every slot
    following a control transfer.
    """
    instrs = decode_section(data, va)
    n = len(instrs)

    leaders: set[int] = {va} if n else set()
    for idx, instr in enumerate(instrs):
        here = va + idx * INSTR_SIZE
        if instr.op in DIRECT_BRANCHES:
            target = instr.imm
            if va <= target < va + n * INSTR_SIZE and \
                    (target - va) % INSTR_SIZE == 0:
                leaders.add(target)
            if idx + 1 < n:
                leaders.add(here + INSTR_SIZE)
        elif instr.op in INDIRECT_BRANCHES or instr.op in TERMINATORS:
            if idx + 1 < n:
                leaders.add(here + INSTR_SIZE)

    blocks: dict[int, BasicBlock] = {}
    current: BasicBlock | None = None
    for idx, instr in enumerate(instrs):
        here = va + idx * INSTR_SIZE
        if here in leaders or current is None:
            current = BasicBlock(here)
            blocks[here] = current
        current.instrs.append(instr)

    edges: list[Edge] = []
    indirect_sites: list[IndirectSite] = []
    for block in blocks.values():
        last = block.last
        last_va = block.end_va - INSTR_SIZE
        idx = (last_va - va) // INSTR_SIZE
        if last.op in DIRECT_BRANCHES:
            kind = "call" if last.op == "call" else (
                "jump" if last.op == "jmp" else "branch")
            if last.imm in blocks:
                edges.append(Edge(block.va, last.imm, kind))
            if DIRECT_BRANCHES[last.op] and block.end_va in blocks:
                edges.append(Edge(block.va, block.end_va, "fall"))
        elif last.op in INDIRECT_BRANCHES:
            target = None
            prev = instrs[idx - 1] if idx > 0 else None
            if prev is not None and prev.op == "movi" and \
                    prev.dst == last.dst:
                target = prev.imm
            indirect_sites.append(
                IndirectSite(last_va, last.op, last.dst, target))
            if target is not None and target in blocks:
                edges.append(Edge(block.va, target, "indirect"))
            if last.op == "icall" and block.end_va in blocks:
                # an icall returns: execution resumes at the next slot
                edges.append(Edge(block.va, block.end_va, "fall"))
        elif last.op in TERMINATORS:
            pass
        elif block.end_va in blocks:
            edges.append(Edge(block.va, block.end_va, "fall"))

    return ControlFlowGraph(va, instrs, blocks, edges, indirect_sites)

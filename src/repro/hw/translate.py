"""CFG-keyed superblock translation cache for the micro CPU.

The interpreter in :class:`repro.hw.cpu.Cpu` pays a full
fetch → decode → table-lookup round trip per instruction. This module
pre-decodes straight-line runs of verified code into *superblocks* —
tuples of ``(instr, handler, cost)`` triples — so `Cpu.run` can dispatch
whole runs with one MMU check at block entry.

Correctness contract (enforced by the lockstep oracle tests and the
``repro.analysis`` lint):

* **Bit-exact charging.** A superblock charges exactly the
  ``_OP_COSTS`` sequence `Cpu.step` would: one ``charge(cost, "instr")``
  per retired instruction, in program order, from the same handler
  table. Build and lookup never read or charge the cycle clock — the
  cache is a host-speed plane.
* **One architectural check per page run.** `Cpu.step` permission-checks
  the fetch of every instruction; inside a block those checks are
  state-no-ops (exec checks depend only on ``mode``/``CR4``/the PTE, all
  of which are either block terminators here or witnessed below), so the
  cache performs the real ``mmu.check`` once at acquisition — preserving
  faults and A-bit maintenance — and skips the provably-idempotent rest.
* **Witnessed staleness.** Every block records the ``Frame.version`` of
  the code frame, the byte image of the leaf PTE mapping it, and the
  interior-entry byte images of the walk (the paging-structure-cache
  record). Any PTE rewrite, CoW resolution, scrub, seal or code-byte
  write changes a witnessed byte or version and the block (and any live
  cursor into it) dies on the next instruction boundary.

Blocks end at control flow, at mode/CR-changing instructions, at
undecodable bytes, and before any instruction that would straddle the
page boundary (those fall back to the interpreter, byte-for-byte).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidOpcode
from .isa import INSTR_SIZE, decode_cached
from .memory import PAGE_SIZE
from .paging import _PSC_AD_MASK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cpu import Cpu
    from .paging import AddressSpace

#: Instructions that terminate a superblock. Control flow leaves the
#: straight line; ``mov_cr``/``lidt``/``tdcall``/``syscall``/``sysret``/
#: ``iret`` can change the inputs of the skipped fetch checks
#: (mode, CR3, CR4) or redirect execution wholesale.
BLOCK_ENDERS = frozenset({
    "jmp", "jz", "jnz", "call", "icall", "ijmp", "ret", "endbr",
    "syscall", "sysret", "iret", "int", "hlt",
    "mov_cr", "lidt", "tdcall",
})
# endbr ends a block only in the sense that it is a branch *target*
# landing pad; keeping it terminal keeps IBT arming states out of block
# interiors entirely (the interpreter fallback owns every _ibt_wait
# transition).

_LAST_SLOT = PAGE_SIZE - INSTR_SIZE

#: Handlers that provably cannot fault, write memory, observe the cycle
#: clock, or change mode/CR state: register/flag arithmetic plus the
#: direct jumps (which only *return* a target). A maximal run of these
#: executes with one fused ``charge`` — bit-exact, because consecutive
#: same-tag charges with no observer between them commute — and without
#: intermediate witness re-checks (nothing in the run can invalidate one).
PURE_OPS = frozenset({
    "nop", "mov", "movi", "add", "sub", "and", "or", "xor", "shl", "shr",
    "cmp", "cmpi", "addi", "mul", "jmp", "jz", "jnz",
})

#: Handlers that may write simulated memory (data stores, stack pushes,
#: per-CPU stores). A store can rewrite page-table bytes or the code
#: page itself, so the block witness must be re-validated before any
#: later instruction of the same block executes.
MUTATOR_OPS = frozenset({"store", "push", "gsstore"})

#: segment kinds (see :meth:`Superblock.__init__`)
SEG_PURE = 0          # fused run of PURE_OPS
SEG_SINGLE = 1        # one instruction, cannot invalidate the witness
SEG_MUTATOR = 2       # one instruction, re-validate witness afterwards


def _segment(entries: tuple) -> tuple:
    """Split a block's entries into execution segments.

    Returns ``(kind, cost, ops)`` triples where ``ops`` is a tuple of
    ``(instr, handler)`` pairs. ``SEG_PURE`` runs carry the summed cost
    of every instruction in the run; singleton segments carry that
    instruction's own cost.
    """
    segments = []
    run: list = []
    run_cost = 0
    for instr, handler, cost in entries:
        if instr.op in PURE_OPS:
            run.append((instr, handler))
            run_cost += cost
            continue
        if run:
            segments.append((SEG_PURE, run_cost, tuple(run)))
            run, run_cost = [], 0
        kind = SEG_MUTATOR if instr.op in MUTATOR_OPS else SEG_SINGLE
        segments.append((kind, cost, ((instr, handler),)))
    if run:
        segments.append((SEG_PURE, run_cost, tuple(run)))
    return tuple(segments)


class Superblock:
    """One straight-line decoded run, valid while its witness holds."""

    __slots__ = ("start_va", "entries", "segments", "witness")

    def __init__(self, start_va: int, entries: tuple, witness: tuple):
        self.start_va = start_va
        #: ``(instr, handler, cost)`` per instruction, program order
        self.entries = entries
        #: pre-segmented execution plan (see :func:`_segment`)
        self.segments = _segment(entries)
        #: ``(walk_wit, leaf_frame, slot_off, pte_img, code_frame,
        #: code_version)`` — the paging-structure-cache record for the
        #: walk, the leaf PTE's byte image, and the code frame's version
        self.witness = witness

    def fresh(self) -> bool:
        walk_wit, ltf, soff, pte_img, cf, cv = self.witness
        if cf.version != cv:
            return False
        d = ltf.data
        if d is None or d[soff:soff + 8] != pte_img:
            return False
        _, _, rf, e2_off, e2_img, lf, e1_off, e1_head, e1_tail = walk_wit
        rd = rf.data
        if rd is None or rd[e2_off:e2_off + 8] != e2_img:
            return False
        ld = lf.data
        return (ld is not None and ld[e1_off] & _PSC_AD_MASK == e1_head
                and ld[e1_off + 1:e1_off + 8] == e1_tail)


class TranslationCache:
    """Per-core superblock cache keyed by ``(root_fn, block_start_va)``."""

    #: deterministic capacity guard: drop everything rather than evict
    CAPACITY = 8192

    def __init__(self, cpu: Cpu):
        self.cpu = cpu
        self.enabled = True
        self._blocks: dict[tuple[int, int], Superblock] = {}
        # host-plane statistics (exported as metrics outside any digest)
        self.sb_exec = 0      # instructions retired from superblocks
        self.sb_builds = 0
        self.sb_hits = 0
        #: simulated cycles charged through superblock segments. Written
        #: by ``Cpu._translated_burst`` (D6 keeps all clock interaction
        #: out of this module); the budget ledger carves these out of the
        #: ``instr`` tag as the ``exec.superblock`` plane.
        self.sb_cycles = 0

    def stats(self) -> dict:
        """Host-plane counters, JSON-able (never in a digest preimage)."""
        return {"sb_exec": self.sb_exec, "sb_builds": self.sb_builds,
                "sb_hits": self.sb_hits, "sb_cycles": self.sb_cycles}

    def flush(self) -> None:
        self._blocks.clear()

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #

    def acquire(self, rip: int) -> Superblock | None:
        """Return a fresh superblock starting at ``rip``, or None.

        Performs the *real* ``mmu.check`` for the block-entry fetch —
        the one architectural side effect (faults, A-bit) the skipped
        per-instruction checks would have produced — so a None return
        means only "interpret this one", never a missed fault: any
        fault raises here exactly as `Cpu.step` would raise it.
        """
        cpu = self.cpu
        if (rip & (PAGE_SIZE - 1)) > _LAST_SLOT:
            return None        # page-straddling fetch: interpreter owns it
        aspace = cpu.aspace
        pa, _ = cpu.mmu.check(aspace, rip, "exec", cpu.access_ctx())
        key = (aspace.root_fn, rip)
        sb = self._blocks.get(key)
        if sb is not None:
            if sb.fresh():
                self.sb_hits += 1
                return sb
            del self._blocks[key]
        return self._build(aspace, rip, pa, key)

    def _build(self, aspace: AddressSpace, rip: int, pa: int,
               key: tuple[int, int]) -> Superblock | None:
        cpu = self.cpu
        path = aspace.leaf_path(rip)
        if path is None:  # pragma: no cover - check() above guarantees it
            return None
        slot, walk_wit = path
        code_frame = cpu.phys.frame(pa >> 12)
        data = code_frame.data
        if data is None:
            return None        # zero-fill page: first decode faults anyway
        dispatch = cpu._dispatch
        entries = []
        offset = pa & (PAGE_SIZE - 1)
        buf = bytes(data)
        while offset <= _LAST_SLOT:
            try:
                instr = decode_cached(buf[offset:offset + INSTR_SIZE])
            except InvalidOpcode:
                break
            handler_cost = dispatch.get(instr.op)
            if handler_cost is None:
                break          # unimplemented op: interpreter raises it
            entries.append((instr, handler_cost[0], handler_cost[1]))
            if instr.op in BLOCK_ENDERS:
                break
            offset += INSTR_SIZE
        if not entries:
            return None
        self.sb_builds += 1
        if len(self._blocks) >= self.CAPACITY:
            self._blocks.clear()
        pte_img = cpu.phys.read_u64(slot.pa).to_bytes(8, "little")
        witness = (walk_wit, cpu.phys.frame(slot.table_fn),
                   slot.index * 8, pte_img, code_frame, code_frame.version)
        sb = Superblock(rip, tuple(entries), witness)
        self._blocks[key] = sb
        return sb

    # ------------------------------------------------------------------ #
    # CFG preload
    # ------------------------------------------------------------------ #

    def preload(self, aspace: AddressSpace, va: int, code: bytes) -> int:
        """Pre-translate every basic block of a verified code image.

        Called after boot verified ``code`` mapped at ``va``: the CFG the
        verifier recovered (memoized, so not decoded again) names each
        block head, translated now instead of at first execution.
        Returns the number of superblocks built; undecodable code builds
        none. Purely host-plane: no cycles, no architectural state.
        """
        from ..analysis.cfg import CfgDecodeError, build_cfg

        try:
            cfg = build_cfg(code, va)
        except CfgDecodeError:
            return 0
        built = 0
        for block_va in cfg.block_table():
            hit = aspace.translate(block_va)
            if hit is None:
                continue
            key = (aspace.root_fn, block_va)
            if self._build(aspace, block_va, hit[0], key) is not None:
                built += 1
        return built

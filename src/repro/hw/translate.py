"""CFG-keyed superblock translation cache for the micro CPU.

The interpreter in :class:`repro.hw.cpu.Cpu` pays a full
fetch → decode → table-lookup round trip per instruction. This module
pre-decodes straight-line runs of verified code into *superblocks* —
tuples of decoded instructions with a staleness witness — which
:mod:`repro.hw.cpu` compiles into one Python function each and runs
with one MMU check at block entry.

Correctness contract (enforced by the lockstep oracle tests and the
``repro.analysis`` lint):

* **Bit-exact charging.** A superblock's function charges exactly the
  ``_OP_COSTS`` totals `Cpu.step` would, flushed before anything can
  observe the clock (see ``Cpu._translated_burst``). Build and lookup
  never read or charge the cycle clock — the cache is a host-speed
  plane.
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

#: Block enders whose target is an immediate: the only blocks whose
#: successor may be entered straight from the previous block.
DIRECT_JUMPS = frozenset({"jmp", "jz", "jnz"})


class Superblock:
    """One straight-line decoded run, valid while its witness holds."""

    __slots__ = ("start_va", "instrs", "witness", "chains", "fn")

    def __init__(self, start_va: int, instrs: tuple, witness: tuple):
        self.start_va = start_va
        #: decoded instructions, program order
        self.instrs = instrs
        #: ``(walk_wit, leaf_frame, slot_off, pte_img, code_frame,
        #: code_version)`` — the paging-structure-cache record for the
        #: walk, the leaf PTE's byte image, and the code frame's version
        self.witness = witness
        #: the block ends in a direct jump, so its successor may be
        #: entered without a new ``acquire`` (see ``Cpu._translated_burst``)
        self.chains = instrs[-1].op in DIRECT_JUMPS
        #: the block's compiled function, emitted by :mod:`repro.hw.cpu`
        #: the first time the block runs
        self.fn = None

    def watches(self, frame) -> bool:
        """True when ``frame`` holds bytes (or the version) the witness
        compares: a write to any other frame cannot make the block stale."""
        walk_wit, ltf, _, _, cf, _ = self.witness
        return (frame is cf or frame is ltf or frame is walk_wit[2]
                or frame is walk_wit[5])

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
        #: ``(root_fn, block_start_va)`` → block; read directly by the
        #: burst loop to chain blocks without a new ``acquire``
        self.blocks: dict[tuple[int, int], Superblock] = {}
        # host-plane statistics (exported as metrics outside any digest)
        self.sb_exec = 0      # instructions retired from superblocks
        self.sb_builds = 0
        self.sb_hits = 0
        #: simulated ``instr`` cycles charged by superblock functions.
        #: Written by the functions :mod:`repro.hw.cpu` emits (D6 keeps
        #: all clock interaction out of this module); the budget ledger
        #: carves these out of the ``instr`` tag as the
        #: ``exec.superblock`` plane.
        self.sb_cycles = 0

    def stats(self) -> dict:
        """Host-plane counters, JSON-able (never in a digest preimage)."""
        return {"sb_exec": self.sb_exec, "sb_builds": self.sb_builds,
                "sb_hits": self.sb_hits, "sb_cycles": self.sb_cycles}

    def flush(self) -> None:
        self.blocks.clear()

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
        sb = self.blocks.get(key)
        if sb is not None:
            if sb.fresh():
                self.sb_hits += 1
                return sb
            del self.blocks[key]
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
        instrs = []
        offset = pa & (PAGE_SIZE - 1)
        buf = bytes(data)
        while offset <= _LAST_SLOT:
            try:
                instr = decode_cached(buf[offset:offset + INSTR_SIZE])
            except InvalidOpcode:
                break
            if instr.op not in dispatch:
                break          # unimplemented op: interpreter raises it
            instrs.append(instr)
            if instr.op in BLOCK_ENDERS:
                break
            offset += INSTR_SIZE
        if not instrs:
            return None
        self.sb_builds += 1
        if len(self.blocks) >= self.CAPACITY:
            self.blocks.clear()
        pte_img = cpu.phys.read_u64(slot.pa).to_bytes(8, "little")
        witness = (walk_wit, cpu.phys.frame(slot.table_fn),
                   slot.index * 8, pte_img, code_frame, code_frame.version)
        sb = Superblock(rip, tuple(instrs), witness)
        self.blocks[key] = sb
        return sb

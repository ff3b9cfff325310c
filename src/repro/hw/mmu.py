"""MMU: address translation plus the full x86 permission-check pipeline.

Every memory access from the simulated CPU (and every *modelled* access
from the macro-level kernel/monitor/sandbox code) funnels through
:class:`Mmu.check`, which applies, in order:

1. presence (``#PF`` not-present otherwise),
2. user/supervisor split (``PTE.U``),
3. SMEP — supervisor fetches from user pages fault,
4. SMAP — supervisor data access to user pages faults unless ``EFLAGS.AC``
   (set by ``stac``) is on,
5. NX — fetches from no-execute pages fault,
6. writability — ``PTE.W``, honoured in supervisor mode when ``CR0.WP``,
   with the CET shadow-stack carve-out (shadow-stack pages are
   written *only* by shadow-stack operations),
7. PKS — supervisor pages carry a protection key; the accessing core's
   ``IA32_PKRS`` may deny access (AD) or write (WD).

This ordering is what makes Erebor's mechanisms meaningful: the monitor's
pages are supervisor pages under a protection key the kernel's PKRS denies,
page-table pages are write-denied the same way, and sandbox user pages are
unreachable from the kernel because SMAP is always on and ``stac`` has been
removed from kernel code.
"""

from __future__ import annotations

from dataclasses import dataclass
from struct import Struct

from . import regs
from .cycles import Cost, CycleClock
from .errors import PageFault, SimulatorError
from .memory import PAGE_SIZE, PhysicalMemory
from .paging import (
    HUGE_PAGE_SIZE,
    PTE_A,
    PTE_D,
    PTE_NX,
    PTE_P,
    PTE_PKEY_MASK,
    PTE_PS,
    PTE_U,
    PTE_W,
    AddressSpace,
    pte_frame,
    pte_pkey,
    store_table_words,
    table_words,
)

#: the PTE bits :func:`_denial` reads, over which :meth:`Mmu.check_run`
#: memoizes its verdicts
_VERDICT_BITS = PTE_W | PTE_U | PTE_NX | PTE_PKEY_MASK
#: P and PS both set: a huge leaf, which :meth:`Mmu.check_run` visits
_HUGE = PTE_P | PTE_PS
#: one little-endian page-table entry, and a table that holds no bytes
_PTE = Struct("<Q")
_EMPTY_TABLE = bytes(PAGE_SIZE)
#: maps an entry's low byte to its P bit
_PRESENT = bytes(b & PTE_P for b in range(256))

USER_MODE = "user"
KERNEL_MODE = "kernel"


@dataclass
class AccessContext:
    """The CPU state relevant to a permission check."""

    mode: str = KERNEL_MODE
    cr0: int = regs.CR0_PE | regs.CR0_PG | regs.CR0_WP
    cr4: int = 0
    pkrs: int = 0
    ac: bool = False          # EFLAGS.AC, set by stac
    shadow_stack_op: bool = False  # access is a CET shadow-stack push/pop


def _denial(pte: int, hit_fn: int, phys: PhysicalMemory, access: str,
            ctx: AccessContext) -> tuple[str, bool] | None:
    """The first of steps 2-7 that an access to present leaf ``pte`` breaks.

    Returns ``(why, pkey_violation)`` — ``why`` is the fault description
    without its address — or None when the access passes. ``hit_fn`` is
    the 4 KiB frame the access lands on; it is looked up only once steps
    2-5 have passed, and one with no built frame has no shadow-stack
    flag. The one copy of the rules :meth:`Mmu.check` and
    :meth:`Mmu.check_run` apply.
    """
    user = ctx.mode == USER_MODE
    is_user_page = bool(pte & PTE_U)
    if user and not is_user_page:
        return "user access to supervisor page", False

    if not user and is_user_page:
        if access == "exec" and ctx.cr4 & regs.CR4_SMEP:
            return "SMEP: supervisor fetch from user page", False
        if access != "exec" and ctx.cr4 & regs.CR4_SMAP and not ctx.ac:
            return "SMAP: supervisor data access to user page", False

    if access == "exec" and pte & PTE_NX:
        return "NX: fetch from no-execute page", False

    frame = phys.peek(hit_fn)
    shadow = frame is not None and frame.is_shadow_stack
    if access == "write":
        if shadow != ctx.shadow_stack_op:
            return "shadow-stack write discipline violated at", False
        if not pte & PTE_W and not ctx.shadow_stack_op:
            if user or ctx.cr0 & regs.CR0_WP:
                return "write to read-only page", False
    elif ctx.shadow_stack_op and not shadow:
        return "shadow-stack read from normal page", False

    # PKS applies to supervisor pages accessed in supervisor mode (data
    # accesses only; instruction fetch is not subject to keys).
    if (not user and not is_user_page and access != "exec"
            and ctx.cr4 & regs.CR4_PKS):
        rights = regs.pkey_rights(ctx.pkrs, pte_pkey(pte))
        if rights & regs.PKR_AD:
            return "PKS access-disable on", True
        if access == "write" and rights & regs.PKR_WD:
            return "PKS write-disable on", True
    return None


def _spans(stride: int) -> bool:
    """Whether :meth:`Mmu.check_run` reads pages ``stride`` bytes apart
    as spans: their leaf slots must be evenly spaced, so the stride whole
    pages. ``tests/reference.py`` turns both span paths off here."""
    return not stride & (PAGE_SIZE - 1)


class Mmu:
    """Translation + permission engine bound to one physical memory.

    Every :meth:`check` walks: the leaf slot comes from the address
    space (whose paging-structure cache is the one walk memo), and the
    leaf PTE is read from the live table bytes each time. A walk charges
    zero cycles, so the simulated ledger does not depend on how often
    one runs.
    """

    #: the serve-phase counts ``perfbench/workloads.py`` reads; no
    #: memo is kept here, so both stay 0
    tlb_hits = tlb_misses = 0

    def __init__(self, phys: PhysicalMemory, clock: CycleClock):
        self.phys = phys
        self.clock = clock
        #: pages :meth:`check_run` passed as spans (host plane: pages it
        #: resolved without the caller's per-page ``visit``)
        self.run_pages = 0

    # ------------------------------------------------------------------ #
    # the permission pipeline
    # ------------------------------------------------------------------ #

    def check(self, aspace: AddressSpace, va: int, access: str,
              ctx: AccessContext) -> int:
        """Validate one access; return its PA or raise :class:`PageFault`."""
        if access not in ("read", "write", "exec"):
            raise SimulatorError(f"bad access type {access!r}")
        user = ctx.mode == USER_MODE

        slot = aspace.leaf_slot(va)
        pte = 0 if slot is None else self.phys.read_u64(slot.pa)
        if not pte & PTE_P:
            raise PageFault(va, is_write=access == "write", is_exec=access == "exec",
                            is_user=user, present=False)

        # for huge mappings, flags are checked on the 4 KiB frame hit
        if pte & PTE_PS:
            hit_fn = pte_frame(pte) + ((va & (HUGE_PAGE_SIZE - 1)) >> 12)
        else:
            hit_fn = pte_frame(pte)
        denial = _denial(pte, hit_fn, self.phys, access, ctx)
        if denial is not None:
            why, pkey = denial
            raise PageFault(va, is_write=access == "write",
                            is_exec=access == "exec", is_user=user,
                            present=True, pkey_violation=pkey,
                            description=f"{why} {va:#x}")

        # accessed/dirty maintenance
        new = pte | PTE_A | (PTE_D if access == "write" else 0)
        if new != pte:
            self.phys.write_u64(slot.pa, new)
        return (hit_fn << 12) | (va & (PAGE_SIZE - 1))

    def check_run(self, aspace: AddressSpace, va: int, end: int, stride: int,
                  access: str, ctx: AccessContext, visit, span) -> int:
        """Check the pages ``va, va + stride, …`` below ``end`` in order,
        walking each leaf table once.

        The walk reads the slots of the pages in each leaf table from its
        live bytes in one slice and splits them into *spans*, maximal runs
        of present or of missing slots:

        * a present span whose entries carry the same flags, all inside
          memory, is passed at once when :func:`_denial` clears them and
          the access sets no A/D bit (with the frames' shadow-stack flag
          where the access reads it);
        * a missing span goes to ``span(first_va, count, passed,
          recheck, held)``, the caller's fault run (see
          :meth:`repro.kernel.kernel.FaultRun.span`), which returns the
          validated PTEs of its leading pages as ``(flags, frames)``. The
          walk writes them into the table in one slice, with the A/D bits
          the re-check would set; ``recheck(pte, frames)`` tells the run
          how many of ``frames``, mapped with ``pte``'s flags, the
          re-check passes, and a PTE it refuses is installed as resolved
          and re-checked by :meth:`check`, which raises. ``held`` is
          False for the pages of a 2 MiB region with no leaf table yet
          (one missing span), whose table the walk builds before it
          writes them.

        Every other page goes to ``visit(page_va, passed)``, the caller's
        per-page :meth:`check` and fault: each page of a span the run
        declines (None), the page after the ones it returns, a huge (PS)
        leaf, a present span with mixed flags, a frame outside memory, a
        denial or an A/D update, and every page of a stride that is not
        whole pages. With the paging-structure cache off
        (``PhysicalMemory.psc_enabled``, the ``translation_cache=False``
        configuration) every page is visited, as the per-page reference.

        ``passed`` counts the pages passed since the previous callback.
        Nothing is kept across calls: every walk reads the live table
        bytes. Returns the pages passed after the last callback. Charges
        nothing: a walk costs zero cycles.
        """
        phys = self.phys
        frames = phys.frames
        read = _PTE.unpack_from
        num_frames = phys.num_frames
        ad = PTE_A | (PTE_D if access == "write" else 0)
        #: whether a verdict reads the frame's shadow-stack flag
        shadow_read = access == "write" or ctx.shadow_stack_op
        #: whether :func:`_denial` clears a PTE, memoized over the bits it
        #: reads (P, known set, stands in for the frame's shadow-stack flag)
        verdicts: dict[int, bool] = {}

        def clears(pte: int, fn: int, shadow: bool) -> bool:
            key = pte & _VERDICT_BITS | shadow
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = _denial(pte, fn, phys, access,
                                             ctx) is None
            return ok

        def shadows(fns) -> set:
            """The shadow-stack frames among ``fns``, where it matters."""
            if not shadow_read:
                return set()
            return {fn for fn in frames.keys() & fns
                    if frames[fn].is_shadow_stack}

        def recheck(pte: int, fns) -> int:
            """How many leading ``fns``, mapped with ``pte``'s flags, the
            re-check passes (a frame outside memory fails it)."""
            n = len(fns)
            if n and (min(fns) < 0 or max(fns) >= num_frames):
                n = next(i for i, fn in enumerate(fns)
                         if not 0 <= fn < num_frames)
            if not n:
                return 0
            shadow = shadows(fns[:n])
            if not shadow:
                return n if clears(pte, fns[0], False) else 0
            return next((i for i, fn in enumerate(fns[:n])
                         if not clears(pte, fn, fn in shadow)), n)

        passed = seen = 0       # pages passed; those reported to a callback
        step = stride >> 12
        #: pages below this go to ``visit``
        slow_end = va if phys.psc_enabled and _spans(stride) else end
        try:
            while va < end:
                if va < slow_end:
                    visit(va, passed - seen)
                    seen = passed
                    va += stride
                    continue
                slot = aspace.leaf_slot(va)
                if slot is None:
                    # no leaf table yet: one missing span, whose install
                    # builds the table
                    table = None
                    data = _EMPTY_TABLE
                else:
                    table = phys.frame(slot.table_fn)
                    data = table.data or _EMPTY_TABLE
                    if read(data, slot.index << 3)[0] & _HUGE == _HUGE:
                        slow_end = va + stride      # a huge leaf
                        continue
                #: the slots of ``base`` .. ``limit`` as read now; a span
                #: callback writes no slot of the table, the walk writes
                #: only slots behind it, and a visit ends the walk
                base, base_off = va, (va >> 9) & 0xFF8
                limit = min(end, (va | (HUGE_PAGE_SIZE - 1)) + 1)
                slots = (limit - va - 1) // stride + 1
                width = (slots - 1) * 8 * step + 1
                low = data[base_off:base_off + width:8 * step]
                present = low.translate(_PRESENT)
                high = words = None
                while slow_end <= va < limit:
                    i = (va - base) // stride
                    if not present[i]:
                        j = present.find(1, i)
                        count = (slots if j < 0 else j) - i
                        resolved = span(va, count, passed - seen,
                                        recheck, table is not None)
                        if resolved is None:
                            slow_end = va + count * stride
                            continue
                        pte, fns = resolved
                        if not fns:
                            slow_end = va + stride
                            continue
                        done = len(fns)
                        word = pte | ad & ~pte
                        values = [fn << 12 | word for fn in fns]
                        refused = not recheck(pte, fns[-1:])
                        if refused:
                            values[-1] = fns[-1] << 12 | pte
                        if table is None:
                            table = phys.frame(aspace.leaf_slot(
                                va, create=True).table_fn)
                        # the live bytes: a handler may have replaced
                        # the bytearray
                        data = table.materialize()
                        store_table_words(data, (va >> 12) & 0x1FF, step,
                                          values)
                        table.version += done
                        seen = passed + done - 1
                        passed += done - refused
                        va += (done - 1) * stride
                        if refused:
                            # the re-check, which raises as it would
                            self.check(aspace, va, access, ctx)
                            passed += 1
                        va += stride
                        if done < count:
                            slow_end = va + stride
                        continue
                    j = present.find(0, i)
                    j = slots if j < 0 else j
                    lo = low[i]
                    if high is None:
                        high = data[base_off + 7:base_off + 7 + width:
                                    8 * step]
                        words = table_words(data, base_off >> 3, slots,
                                            step)
                    hi = high[i]
                    if (not lo & PTE_PS and lo & ad == ad
                            and low.count(lo, i, j) == j - i
                            and high.count(hi, i, j) == j - i
                            and max(words[i:j]) - (hi << 56)
                            < num_frames << 12):
                        pte = words[i]
                        fns = ([pte_frame(w) for w in words[i:j]]
                               if shadow_read else ())
                        if not shadows(fns) and clears(pte, pte_frame(pte),
                                                       False):
                            passed += j - i
                            va += (j - i) * stride
                            continue
                    slow_end = va + (j - i) * stride
        finally:
            self.run_pages += passed
        return passed - seen

    # ------------------------------------------------------------------ #
    # checked byte access (used by the micro CPU and data channels)
    # ------------------------------------------------------------------ #

    def read(self, aspace: AddressSpace, va: int, size: int, ctx: AccessContext) -> bytes:
        out = self.checked_read(aspace, va, size, ctx)
        self.clock.charge(Cost.MEM, "mem")
        return out

    def write(self, aspace: AddressSpace, va: int, data: bytes, ctx: AccessContext) -> None:
        self.checked_write(aspace, va, data, ctx)
        self.clock.charge(Cost.MEM, "mem")

    def checked_read(self, aspace: AddressSpace, va: int, size: int,
                     ctx: AccessContext) -> bytes:
        """:meth:`read` without its MEM charge (the caller books it)."""
        out = bytearray()
        while size > 0:
            pa = self.check(aspace, va, "read", ctx)
            chunk = min(size, PAGE_SIZE - (va & (PAGE_SIZE - 1)))
            out += self.phys.read(pa, chunk)
            va += chunk
            size -= chunk
        return bytes(out)

    def checked_write(self, aspace: AddressSpace, va: int, data: bytes,
                      ctx: AccessContext) -> None:
        """:meth:`write` without its MEM charge (the caller books it)."""
        off = 0
        while off < len(data):
            pa = self.check(aspace, va, "write", ctx)
            chunk = min(len(data) - off, PAGE_SIZE - (va & (PAGE_SIZE - 1)))
            self.phys.write(pa, data[off:off + chunk])
            va += chunk
            off += chunk

    def fetch(self, aspace: AddressSpace, va: int, size: int, ctx: AccessContext) -> bytes:
        pa = self.check(aspace, va, "exec", ctx)
        first = PAGE_SIZE - (va & (PAGE_SIZE - 1))
        if first >= size:
            return self.phys.read(pa, size)
        # straddles a page: validate and translate the second page too —
        # adjacent virtual pages need not map adjacent frames
        pa2 = self.check(aspace, va + first, "exec", ctx)
        return self.phys.read(pa, first) + self.phys.read(pa2, size - first)

    def read_u64(self, aspace: AddressSpace, va: int, ctx: AccessContext) -> int:
        if va & (PAGE_SIZE - 1) <= PAGE_SIZE - 8:
            pa = self.check(aspace, va, "read", ctx)
            value = self.phys.read_u64(pa)
            self.clock.charge(Cost.MEM, "mem")
            return value
        return int.from_bytes(self.read(aspace, va, 8, ctx), "little")

    def write_u64(self, aspace: AddressSpace, va: int, value: int, ctx: AccessContext) -> None:
        if va & (PAGE_SIZE - 1) <= PAGE_SIZE - 8:
            pa = self.check(aspace, va, "write", ctx)
            self.phys.write_u64(pa, value)
            self.clock.charge(Cost.MEM, "mem")
            return
        self.write(aspace, va, (value & (2 ** 64 - 1)).to_bytes(8, "little"), ctx)

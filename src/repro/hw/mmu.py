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
    PTE_FRAME_MASK,
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

#: the PTE bits a :meth:`Mmu.check_run` verdict reads: those
#: :func:`_denial` reads, PS, and the A/D bits the access may set
_VERDICT_BITS = PTE_W | PTE_U | PTE_NX | PTE_PKEY_MASK | PTE_PS | PTE_A | PTE_D
#: P and PS both set: a huge leaf, which takes the per-page path
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
        #: pages :meth:`check_run`'s leaf-table pass passed (host plane:
        #: pages it resolved without the caller's per-page path)
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

        The leaf-table pass reads the slots of the pages in each table
        from its live bytes and splits them into *spans*, maximal runs of
        present or of missing slots:

        * a present span whose entries carry the same flags, all inside
          memory, is passed at once when :func:`_denial` clears them and
          the access sets no A/D bit (with the frames' shadow-stack flag
          where the access reads it);
        * a missing span goes to ``span(first_va, count, passed,
          recheck, held)``, the caller's fault run (see
          :meth:`repro.kernel.kernel.FaultRun.span`), which returns the
          validated PTEs of its leading pages as ``(flags, frames)``. The
          pass writes them into the table in one slice, with the A/D bits
          the re-check would set; ``recheck(pte, frames)`` tells the run
          how many of ``frames``, mapped with ``pte``'s flags, the
          re-check passes, and a PTE it refuses is installed as resolved
          and re-checked by :meth:`check`, which raises. ``held`` is
          False for the pages of a 2 MiB region with no leaf table yet
          (one missing span), whose table the pass builds before it
          writes them. The page after the returned ones, or every page
          of a span the run declines (None), takes the per-page path;
        * every other span — a huge (PS) leaf, mixed flags, an A/D update,
          a frame outside memory — takes the per-page path.

        ``passed`` counts the pages passed since the previous callback.
        On the per-page path, the pass passes a present page
        :func:`_denial` clears (setting the A/D bits :meth:`check`
        would set) and hands every other page to ``visit(page_va,
        passed, missing, held)``, which returns the PTE a fault run
        resolved the page with, or 0 when it resolved none:

        * a not-present page arrives with ``missing`` True and raises no
          :class:`PageFault`. When the page has a leaf table, which the
          pass holds, ``held`` is True: the fault run only validates the
          PTE, and the pass writes it into the table with the A/D bits
          the re-check would set, in one write. Without a table the
          fault run installs the page itself and the pass makes the
          re-check's A/D update. Either way, a PTE that breaks a rule
          gets the re-check, :meth:`check`, which raises; the page
          counts as passed;
        * anything else — a huge (PS) leaf, a permission fault, a missing
          page ``visit`` handled itself — is the caller's per-page
          :meth:`check`; ``visit`` returns 0 and the pass re-walks.

        A frame with no built :class:`~repro.hw.memory.Frame` has no
        flags, so its verdict is memoized like any other. Nothing is
        kept across calls: every call reads the live table bytes. With
        the paging-structure cache off (``PhysicalMemory.psc_enabled``,
        the ``translation_cache=False`` configuration) every page is
        visited, as the per-page reference. Returns the pages passed
        after the last callback. Charges nothing: a walk costs zero
        cycles.
        """
        if not self.phys.psc_enabled:
            while va < end:
                visit(va, 0, False, False)
                va += stride
            return 0
        phys = self.phys
        write_u64 = phys.write_u64
        frames = phys.frames
        frame_of = frames.get
        read = _PTE.unpack_from
        write = _PTE.pack_into
        num_frames = phys.num_frames
        ad = PTE_A | (PTE_D if access == "write" else 0)
        #: whether a verdict reads the frame's shadow-stack flag
        shadow_read = access == "write" or ctx.shadow_stack_op
        #: memo over the bits a verdict reads (P, known set, stands in for
        #: the frame's shadow-stack flag): the A/D bits the access still
        #: sets, or -1 where the page takes the per-page path
        verdicts: dict[int, int] = {}

        def verdict(pte: int, fn: int, shadow: bool) -> int:
            key = pte & _VERDICT_BITS | shadow
            sets = verdicts.get(key)
            if sets is None:
                sets = verdicts[key] = (
                    ad & ~pte if pte & _HUGE == PTE_P
                    and _denial(pte, fn, phys, access, ctx) is None else -1)
            return sets

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
                return n if verdict(pte, fns[0], False) >= 0 else 0
            return next((i for i, fn in enumerate(fns[:n])
                         if verdict(pte, fn, fn in shadow) < 0), n)

        passed = seen = 0       # pages passed; those reported to a callback
        step = stride >> 12
        #: pages below this take the per-page path
        slow_end = va if _spans(stride) else end
        try:
            while va < end:
                slot = aspace.leaf_slot(va)
                if slot is None and va < slow_end:
                    # no leaf table yet: the page is not present
                    installed = visit(va, passed - seen, True, False)
                    seen = passed
                    if installed:
                        self.check(aspace, va, access, ctx)
                        passed += 1
                    va += stride
                    continue
                if slot is None:
                    # no leaf table yet: a missing span, whose install
                    # builds the table
                    table = None
                    data = _EMPTY_TABLE
                else:
                    table = phys.frame(slot.table_fn)
                    table_pa = slot.table_fn << 12
                    data = table.data or _EMPTY_TABLE
                if (slot is not None
                        and read(data, slot.index << 3)[0] & _HUGE == _HUGE):
                    # a huge leaf: the per-page path
                    visit(va, passed - seen, False, False)
                    seen = passed
                    va += stride
                    continue
                limit = min(end, (va | (HUGE_PAGE_SIZE - 1)) + 1)
                #: the slots of ``base`` .. ``limit`` as read at the first
                #: span of this walk; a callback writes no slot of the
                #: walk's table, and the pass writes only slots behind it
                base = None
                while va < limit:
                    off = (va >> 9) & 0xFF8
                    if va >= slow_end:
                        if base is None:
                            base, base_off = va, off
                            slots = (limit - va - 1) // stride + 1
                            width = (slots - 1) * 8 * step + 1
                            low = data[off:off + width:8 * step]
                            present = low.translate(_PRESENT)
                            high = words = None
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
                            if fns:
                                done = len(fns)
                                word = pte | ad & ~pte
                                values = [fn << 12 | word for fn in fns]
                                refused = not recheck(pte, fns[-1:])
                                if refused:
                                    values[-1] = fns[-1] << 12 | pte
                                if table is None:
                                    table = phys.frame(aspace.leaf_slot(
                                        va, create=True).table_fn)
                                    table_pa = table.fn << 12
                                # the live bytes: a handler may have
                                # replaced the bytearray
                                data = table.materialize()
                                store_table_words(data, off >> 3, step, values)
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
                            else:
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
                        if (not lo & PTE_PS
                                and low.count(lo, i, j) == j - i
                                and high.count(hi, i, j) == j - i
                                and max(words[i:j]) - (hi << 56)
                                < num_frames << 12):
                            pte = words[i]
                            fns = ([pte_frame(w) for w in words[i:j]]
                                   if shadow_read else ())
                            if (not shadows(fns)
                                    and verdict(pte, pte_frame(pte),
                                                False) == 0):
                                passed += j - i
                                va += (j - i) * stride
                                continue
                        slow_end = va + (j - i) * stride
                        continue
                    if table is None:
                        break       # re-walk: the no-table path
                    pte = read(data, off)[0]
                    missing = not pte & PTE_P
                    if missing:
                        # validated by the fault run; the pass installs it
                        pte = visit(va, passed - seen, True, True)
                        seen = passed
                        if not pte:
                            va += stride
                            break
                    fn = (pte & PTE_FRAME_MASK) >> 12
                    frame = frame_of(fn)
                    if frame is None and fn >= num_frames:
                        sets = -1       # outside memory: check raises
                    else:
                        sets = verdict(pte, fn, frame is not None
                                       and frame.is_shadow_stack)
                    if sets < 0:
                        if missing:
                            # the install, then the re-check, which
                            # raises as it would
                            write(table.materialize(), off, pte)
                            table.version += 1
                            self.check(aspace, va, access, ctx)
                            passed += 1
                        else:
                            visit(va, passed - seen, False, False)
                            seen = passed
                        va += stride
                        break
                    if missing:
                        # the install with the re-check's A/D bits, in one
                        # write to the live bytes (a handler may replace
                        # the bytearray)
                        data = table.materialize()
                        write(data, off, pte | sets)
                        table.version += 1
                    elif sets:
                        write_u64(table_pa + off, pte | sets)
                    passed += 1
                    va += stride
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

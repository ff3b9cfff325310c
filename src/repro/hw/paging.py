"""Three-level page tables stored in simulated physical frames.

The virtual address space is 39 bits (512 GiB), split x86-style into three
9-bit indices plus a 12-bit page offset:

    L2 (bits 30-38, 1 GiB/entry) -> L1 (bits 21-29, 2 MiB) -> L0 (4 KiB)

Every table level is a real 4 KiB frame holding 512 8-byte entries, written
through :class:`~repro.hw.memory.PhysicalMemory`. This matters for fidelity:
Erebor's nested-kernel MMU protection keeps the kernel from holding any
writable mapping of a *page-table page* — ``NestedMmu.write_pte``
(:mod:`repro.core.nested_mmu`) refuses every writable PTE that maps a
page-table frame — so PTEs must live in real frames whose mappings the
monitor can police: an attack that tries to scribble a PTE through a
kernel mapping finds no writable alias to store through.

PTE layout mirrors x86-64 where the paper depends on it:

    bit 0   P (present)          bit 6  D (dirty)
    bit 1   W (writable)         bits 12..50 frame number
    bit 2   U (user)             bits 59..62 protection key (PKS/PKU)
    bit 5   A (accessed)         bit 63 NX (no-execute)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from struct import pack, unpack

from .errors import SimulatorError
from .memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

# PTE flag bits
PTE_P = 1 << 0
PTE_W = 1 << 1
PTE_U = 1 << 2
PTE_A = 1 << 5
PTE_D = 1 << 6
PTE_PS = 1 << 7          # page-size: a 2 MiB mapping at the L1 level
PTE_NX = 1 << 63

HUGE_PAGE_SIZE = 2 * 1024 * 1024
HUGE_PAGE_FRAMES = HUGE_PAGE_SIZE // PAGE_SIZE
PTE_PKEY_SHIFT = 59
PTE_PKEY_MASK = 0xF << PTE_PKEY_SHIFT
PTE_FRAME_MASK = ((1 << 51) - 1) & ~((1 << PAGE_SHIFT) - 1)

ENTRIES_PER_TABLE = 512
LEVELS = 3
VA_BITS = 39
VA_LIMIT = 1 << VA_BITS

#: low-byte mask dropping A/D from an interior-entry byte image: for huge
#: mappings the L1 entry doubles as the leaf and takes A/D maintenance,
#: which must not invalidate the cached *walk* (the leaf bytes themselves
#: are compared separately by whoever caches the translation).
_PSC_AD_MASK = 0xFF & ~(PTE_A | PTE_D)


#: a ``Q`` view of a table's bytes reads its little-endian entries right
#: only on a little-endian host
_LITTLE = sys.byteorder == "little"


def table_words(data, first: int, count: int, step: int) -> list[int]:
    """Entries ``first, first + step, …`` (``count`` of them) of the
    page table whose bytes are ``data``, read in one slice."""
    words = memoryview(data).cast("Q")[first:first + (count - 1) * step + 1:step]
    if _LITTLE:
        return words.tolist()
    return list(unpack(f"<{count}Q", words.tobytes()))


def store_table_words(data: bytearray, first: int, step: int,
                      values: list[int]) -> None:
    """Write ``values`` into entries ``first, first + step, …`` of the
    page table whose bytes are ``data``, in one slice assignment."""
    memoryview(data).cast("Q")[first:first + (len(values) - 1) * step + 1:step] = \
        memoryview(pack(f"<{len(values)}Q", *values)).cast("Q")


def make_pte(fn: int, flags: int, pkey: int = 0) -> int:
    """Compose a PTE from a frame number, flag bits and a protection key."""
    if not 0 <= pkey <= 15:
        raise SimulatorError(f"protection key {pkey} out of range")
    return (fn << PAGE_SHIFT) & PTE_FRAME_MASK | (flags & ~PTE_PKEY_MASK) | (pkey << PTE_PKEY_SHIFT)


def pte_frame(pte: int) -> int:
    return (pte & PTE_FRAME_MASK) >> PAGE_SHIFT


def pte_pkey(pte: int) -> int:
    return (pte & PTE_PKEY_MASK) >> PTE_PKEY_SHIFT


def va_indices(va: int) -> tuple[int, int, int]:
    """Split a canonical VA into (L2, L1, L0) table indices."""
    if not 0 <= va < VA_LIMIT:
        raise SimulatorError(f"virtual address {va:#x} outside {VA_BITS}-bit space")
    return (va >> 30) & 0x1FF, (va >> 21) & 0x1FF, (va >> 12) & 0x1FF


@dataclass
class PteSlot:
    """Physical location of one page-table entry (for reads and attacks)."""

    table_fn: int
    index: int

    @property
    def pa(self) -> int:
        return (self.table_fn << PAGE_SHIFT) + self.index * 8


class AddressSpace:
    """One page-table hierarchy rooted at a physical frame (CR3 target).

    :meth:`set_pte` and :meth:`clear_pte` write the table bytes raw: they
    check no policy, and nothing interposes on them. Erebor's monitor is
    the only writer of page tables for other reasons. Every PTE the
    kernel asks for goes through ``NestedMmu.write_pte``
    (:mod:`repro.core.nested_mmu`), which refuses any writable mapping
    of a page-table frame, so simulated code has no writable alias of a
    table. That refusal is the barrier: the kernel's PKRS
    (``PKRS_KERNEL``) write-disables ``PKEY_PT``, the protection key
    reserved for page-table pages, but no PTE carries that key yet.
    """

    def __init__(self, phys: PhysicalMemory, name: str = "as"):
        self.phys = phys
        self.name = name
        root_fn = phys.alloc_frame("pt")
        phys.frame(root_fn).is_page_table = True
        phys.frame(root_fn).materialize()
        self.root_fn = root_fn
        #: every page-table frame in this hierarchy (root included)
        self.table_frames: set[int] = {root_fn}
        #: paging-structure cache: ``va >> 21`` → the upper-level walk,
        #: witnessed by the byte images of the two interior entries it
        #: replays (see :meth:`leaf_slot`). Host-plane only — a hit is
        #: provably identical to the interpreted walk because the walk
        #: is a pure function of exactly the compared bytes.
        self._psc: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #

    def _table_entry(self, table_fn: int, index: int) -> int:
        return self.phys.read_u64((table_fn << PAGE_SHIFT) + index * 8)

    def _ensure_table(self, table_fn: int, index: int) -> int:
        """Return the next-level table frame at (table_fn, index), creating it."""
        entry = self._table_entry(table_fn, index)
        if entry & PTE_P:
            return pte_frame(entry)
        new_fn = self.phys.alloc_frame("pt")
        frame = self.phys.frame(new_fn)
        frame.is_page_table = True
        frame.materialize()
        self.table_frames.add(new_fn)
        # Interior entries are maximally permissive; leaves carry the policy.
        self.phys.write_u64(
            (table_fn << PAGE_SHIFT) + index * 8, make_pte(new_fn, PTE_P | PTE_W | PTE_U)
        )
        return new_fn

    def leaf_slot(self, va: int, *, create: bool = False) -> PteSlot | None:
        """Locate the leaf slot for ``va``, optionally creating tables.

        For huge mappings (PS bit at the L1 level) the *L1 slot is the
        leaf*: callers see one PTE covering 2 MiB.

        A paging-structure cache memoizes the two interior lookups per
        2 MiB region. A cached walk is validated by byte-comparing the
        live interior entries against the images captured at fill time
        (the L1 entry with A/D masked, since for huge mappings that
        entry *is* the leaf and takes A/D maintenance): if the bytes
        match, the interpreted walk would reach the same leaf table, so
        the hit is exact whatever happened to frames in between.
        """
        key = va >> 21
        e = self._psc.get(key)
        if e is not None:
            huge, tab_fn, rf, e2_off, e2_img, lf, e1_off, e1_head, e1_tail = e
            rd = rf.data
            if rd is not None and rd[e2_off:e2_off + 8] == e2_img:
                ld = lf.data
                if (ld is not None and ld[e1_off] & _PSC_AD_MASK == e1_head
                        and ld[e1_off + 1:e1_off + 8] == e1_tail):
                    if huge:
                        return PteSlot(tab_fn, key & 0x1FF)
                    return PteSlot(tab_fn, (va >> 12) & 0x1FF)
            del self._psc[key]
        i2, i1, i0 = va_indices(va)
        e2_off = i2 * 8
        entry = self._table_entry(self.root_fn, i2)
        if entry & PTE_P:
            fn = pte_frame(entry)
        elif create:
            fn = self._ensure_table(self.root_fn, i2)
            entry = self._table_entry(self.root_fn, i2)
        else:
            return None
        e1_off = i1 * 8
        l1_entry = self._table_entry(fn, i1)
        if l1_entry & PTE_P and l1_entry & PTE_PS:
            self._fill_psc(key, True, fn, e2_off, entry, fn, e1_off, l1_entry)
            return PteSlot(fn, i1)
        if l1_entry & PTE_P:
            leaf_fn = pte_frame(l1_entry)
        elif create:
            leaf_fn = self._ensure_table(fn, i1)
            l1_entry = self._table_entry(fn, i1)
        else:
            return None
        self._fill_psc(key, False, leaf_fn, e2_off, entry, fn, e1_off, l1_entry)
        return PteSlot(leaf_fn, i0)

    def _fill_psc(self, key: int, huge: bool, tab_fn: int, e2_off: int,
                  e2: int, l1_fn: int, e1_off: int, e1: int) -> None:
        e1_img = e1.to_bytes(8, "little")
        self._psc[key] = (
            huge, tab_fn, self.phys.frame(self.root_fn), e2_off,
            e2.to_bytes(8, "little"), self.phys.frame(l1_fn), e1_off,
            e1_img[0] & _PSC_AD_MASK, e1_img[1:8])

    def leaf_path(self, va: int) -> tuple[PteSlot, tuple] | None:
        """Like :meth:`leaf_slot` (no create), but also return the
        paging-structure-cache record that witnesses the walk.

        The record is the tuple documented on ``_psc``: the interior
        entries' byte images plus the frames holding them. A consumer
        (the translation cache) revalidates a memoized
        translation by re-comparing those bytes — any remap, table
        teardown or frame reuse that could change the walk changes the
        compared bytes, while unrelated traffic (neighbour PTE writes,
        A/D maintenance) leaves them untouched.
        """
        slot = self.leaf_slot(va)
        if slot is None:
            return None
        return slot, self._psc[va >> 21]

    def set_pte(self, va: int, pte: int) -> PteSlot:
        """Install a leaf PTE for ``va`` (raw write; no policy checks here)."""
        slot = self.leaf_slot(va, create=True)
        self.phys.write_u64(slot.pa, pte)
        return slot

    def map_page(self, va: int, fn: int, flags: int, pkey: int = 0) -> PteSlot:
        return self.set_pte(va, make_pte(fn, flags | PTE_P, pkey))

    def map_huge_page(self, va: int, fn_start: int, flags: int,
                      pkey: int = 0) -> PteSlot:
        """Install one 2 MiB mapping (PS entry at the L1 level).

        ``va`` and ``fn_start`` must be 2 MiB-aligned; the mapping covers
        512 consecutive physical frames with one entry.
        """
        if va % HUGE_PAGE_SIZE:
            raise SimulatorError(f"huge mapping VA {va:#x} not 2MiB-aligned")
        if fn_start % HUGE_PAGE_FRAMES:
            raise SimulatorError(
                f"huge mapping frame {fn_start:#x} not 2MiB-aligned")
        i2, i1, _ = va_indices(va)
        l1_fn = self._ensure_table(self.root_fn, i2)
        slot = PteSlot(l1_fn, i1)
        self.phys.write_u64(slot.pa,
                            make_pte(fn_start, flags | PTE_P | PTE_PS, pkey))
        return slot

    def split_huge_page(self, va: int) -> PteSlot | None:
        """Shatter a 2 MiB mapping into 512 4 KiB PTEs (same attributes).

        Returns the old L1 slot, or None if ``va`` is not huge-mapped.
        This is the mechanism behind the monitor's *forced page splitting*
        (paper §7 future work): protection keys apply at 4 KiB
        granularity, so changing permissions inside a huge page first
        splits it.
        """
        slot = self.leaf_slot(va)
        if slot is None:
            return None
        pte = self.phys.read_u64(slot.pa)
        if not pte & PTE_P or not pte & PTE_PS:
            return None
        base_fn = pte_frame(pte)
        attrs = pte & ~PTE_PS & ~PTE_FRAME_MASK
        new_table = self.phys.alloc_frame("pt")
        frame = self.phys.frame(new_table)
        frame.is_page_table = True
        frame.materialize()
        self.table_frames.add(new_table)
        for i in range(HUGE_PAGE_FRAMES):
            self.phys.write_u64((new_table << PAGE_SHIFT) + i * 8,
                                ((base_fn + i) << PAGE_SHIFT) | attrs)
        self.phys.write_u64(slot.pa, make_pte(new_table, PTE_P | PTE_W | PTE_U))
        return slot

    def clear_pte(self, va: int) -> None:
        slot = self.leaf_slot(va)
        if slot is not None:
            self.phys.write_u64(slot.pa, 0)

    def get_pte(self, va: int) -> int:
        slot = self.leaf_slot(va)
        return 0 if slot is None else self.phys.read_u64(slot.pa)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def translate(self, va: int) -> tuple[int, int] | None:
        """Return ``(pa, leaf_pte)`` for ``va``, or None if unmapped."""
        slot = self.leaf_slot(va)
        if slot is None:
            return None
        pte = self.phys.read_u64(slot.pa)
        if not pte & PTE_P:
            return None
        if pte & PTE_PS:
            return (pte_frame(pte) << PAGE_SHIFT) | (va & (HUGE_PAGE_SIZE - 1)), pte
        return (pte_frame(pte) << PAGE_SHIFT) | (va & (PAGE_SIZE - 1)), pte

    def mapped_frame(self, va: int) -> int | None:
        hit = self.translate(va)
        return None if hit is None else hit[0] >> PAGE_SHIFT

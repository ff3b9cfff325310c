"""Nested-kernel MMU virtualization: the monitor as sole page-table writer.

Following the Nested Kernel principles the paper adopts (§5.2), every PTE
mutation in the system flows through :class:`NestedMmu.write_pte`, which
enforces the mapping policies that make Erebor's claims hold:

* **monitor self-protection** (C3) — monitor-owned frames and page-table
  pages may never be mapped writable into any address space;
* **W⊕X** (C2) — kernel-text frames never map writable, writable frames
  never map executable in supervisor mode;
* **single-mapping confined memory** (C6) — a frame declared confined to
  a sandbox maps into exactly that sandbox's address space, at most once;
  double-mapping attacks are refused;
* **common-memory write revocation** (§6.1) — frames of a common region
  map writable only while the region is still in its initialization
  window; after lock the monitor flips every mapping read-only;
* **template immutability** (§9.2 warm start) — frames of a sealed fork
  template are golden images shared read-only across forked sandboxes;
  a writable mapping of one is refused everywhere, forever;
* **shadow-stack discipline** — CET shadow-stack frames are never mapped
  into kernel-writable space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from ..hw.cycles import Cost, CycleClock
from ..hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory, frame_runs
from ..hw.paging import (
    HUGE_PAGE_FRAMES,
    HUGE_PAGE_SIZE,
    PTE_FRAME_MASK,
    PTE_NX,
    PTE_P,
    PTE_PS,
    PTE_U,
    PTE_W,
    AddressSpace,
    make_pte,
    pte_frame,
    pte_pkey,
    store_table_words,
    table_words,
)
from .policy import PolicyViolation


#: maps an entry's low byte to 1 when it is present and writable, and
#: to the same byte with W cleared
_SEALABLE = bytes(b & (PTE_P | PTE_W) == PTE_P | PTE_W for b in range(256))
_CLEAR_W = bytes(b & ~PTE_W for b in range(256))


@dataclass
class CommonRegion:
    """A named, shareable read-only memory region (model/database)."""

    name: str
    frames: list[int]
    writable: bool = True                 # initialization window open?
    initializer: int | None = None        # sandbox id that may populate it
    #: every mapping made while the region was writable, for
    #: write-revocation at lock, as runs ``(aspace, first_va, stride,
    #: count)`` inside one leaf table each
    mappings: list[tuple[AddressSpace, int, int, int]] = field(
        default_factory=list)

    @property
    def size(self) -> int:
        return len(self.frames) << PAGE_SHIFT


class NestedMmu:
    """Monitor-owned MMU state and the validating PTE writer."""

    def __init__(self, phys: PhysicalMemory, clock: CycleClock):
        self.phys = phys
        self.clock = clock
        #: confined frame -> owning sandbox id
        self.confined_owner: dict[int, int] = {}
        #: confined frame -> (aspace identity, va) of its single mapping
        self.confined_mapping: dict[int, tuple[int, int]] = {}
        #: sandbox id -> its (only) registered address space
        self.sandbox_aspace: dict[int, AddressSpace] = {}
        self.common_regions: dict[str, CommonRegion] = {}
        #: template frame -> template name (golden fork images; read-only
        #: shareable across sandboxes, like common memory, never writable)
        self.template_frames: dict[int, str] = {}
        #: address spaces whose PTPs the monitor manages
        self.registered_roots: set[int] = set()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register_aspace(self, aspace: AddressSpace) -> None:
        self.registered_roots.add(aspace.root_fn)

    def register_sandbox(self, sandbox_id: int, aspace: AddressSpace) -> None:
        self.sandbox_aspace[sandbox_id] = aspace
        self.register_aspace(aspace)

    def declare_confined(self, sandbox_id: int, frames: list[int]) -> None:
        for fn in frames:
            prior = self.confined_owner.get(fn)
            if prior is not None and prior != sandbox_id:
                raise PolicyViolation(
                    f"frame {fn:#x} already confined to sandbox {prior}")
            self.confined_owner[fn] = sandbox_id

    def release_confined(self, sandbox_id: int) -> list[int]:
        frames = [fn for fn, sid in self.confined_owner.items()
                  if sid == sandbox_id]
        for fn in frames:
            del self.confined_owner[fn]
            self.confined_mapping.pop(fn, None)
        return frames

    def release_confined_frames(self, frames: list[int]) -> None:
        """Release specific frames from confined tracking (CoW un-break)."""
        for fn in frames:
            self.confined_owner.pop(fn, None)
            self.confined_mapping.pop(fn, None)

    def adopt_template(self, name: str, frames: list[int]) -> None:
        """Re-classify a sealed sandbox image as a named fork template.

        Template frames behave like common memory from the mapping
        policy's point of view: any sandbox may map them read-only, no
        one may ever map them writable again. They are *not* confined
        (the single-mapping rule would forbid sharing them), which is
        safe because a template is sealed before any client data exists.
        """
        adopted = 0
        try:
            for fn in frames:
                prior = self.template_frames.get(fn)
                if prior is not None and prior != name:
                    raise PolicyViolation(
                        f"frame {fn:#x} already belongs to template {prior!r}")
                if fn in self.confined_owner:
                    raise PolicyViolation(
                        f"frame {fn:#x} still confined to sandbox "
                        f"{self.confined_owner[fn]}; release before sealing")
                self.template_frames[fn] = name
                adopted += 1
        finally:
            # a refused frame leaves the ones before it adopted
            for a, b in frame_runs(frames[:adopted]):
                self.phys.set_owner(a, b, f"template:{name}")

    def create_common_region(self, name: str, frames: list[int],
                             initializer: int | None) -> CommonRegion:
        if name in self.common_regions:
            raise PolicyViolation(f"common region {name!r} already exists")
        region = CommonRegion(name, frames, initializer=initializer)
        self.common_regions[name] = region
        for a, b in frame_runs(frames):
            self.phys.set_owner(a, b, f"common:{name}")
        return region

    # ------------------------------------------------------------------ #
    # the single validated PTE writer
    # ------------------------------------------------------------------ #

    def write_pte(self, aspace: AddressSpace, va: int, pte: int) -> None:
        """Validate and install one PTE (the body of the WRITE_PTE EMC)."""
        if aspace.root_fn not in self.registered_roots:
            raise PolicyViolation(
                f"address space root {aspace.root_fn:#x} not registered "
                "with the monitor")
        if pte & PTE_P:
            self._validate_mapping(aspace, va, pte)
        self.clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")
        self.clock.count("pte_write")
        if pte:
            self._set_pte(aspace, va, pte)
        else:
            old = aspace.get_pte(va)
            if old & PTE_P:
                self.confined_mapping.pop(pte_frame(old), None)
            aspace.clear_pte(va)

    def admit_run(self, aspace: AddressSpace, va: int, stride: int, pte: int,
                  fns) -> int:
        """:meth:`write_pte`'s policy checks and single-mapping records,
        without the install, for the pages ``va, va + stride, …`` (both
        whole pages, in one leaf table) mapping the frames ``fns`` in
        order, each with the flags of ``pte`` (which carries no frame).
        The caller writes the PTEs into the leaf table (see
        :meth:`repro.hw.mmu.Mmu.check_run`).

        Admits the pages before the first one :meth:`write_pte` would
        refuse, with the same effects in the same order, and returns how
        many it admitted; the refused page is left to the per-fault
        handler, whose :meth:`write_pte` refuses it. The owner rules are
        decided once per owner extent the frames lie in; the frame-keyed
        rules (type flags, templates, confinement) look only at the
        frames their tables name.
        """
        n = len(fns)
        if not n:
            return 0
        phys = self.phys
        num_frames = phys.num_frames
        if min(fns) < 0 or max(fns) >= num_frames:
            # owner_of raises on a frame outside memory
            n = next(i for i, fn in enumerate(fns)
                     if not 0 <= fn < num_frames)
            fns = fns[:n]
            if not n:
                return 0
        writable = bool(pte & PTE_W)
        wx = not pte & PTE_NX and not pte & PTE_U and writable
        owner = phys.run_owner(min(fns), max(fns))
        if owner is not None:
            runs = [(0, n, owner)]
        else:
            runs = []
            for i, o in enumerate(map(phys.owner_of, fns)):
                if runs and runs[-1][2] == o:
                    runs[-1][1] = i + 1
                else:
                    runs.append([i, i + 1, o])
        regions = []
        for a, b, o in runs:
            region = (self.common_regions.get(o[7:])
                      if o.startswith("common:") else None)
            if (o == "monitor" or (writable if o == "ktext" else wx)
                    or region is not None and writable
                    and not region.writable):
                n = a
                break
            if region is not None and region.writable:
                regions.append((region, a, b))
        if writable:
            frames = phys.frames
            refused = {fn for fn in frames.keys() & fns[:n]
                       if frames[fn].is_page_table
                       or frames[fn].is_shadow_stack}
            refused.update(self.template_frames.keys() & fns[:n])
            if refused:
                n = next(i for i, fn in enumerate(fns) if fn in refused)
        confined = self.confined_owner.keys() & fns[:n]
        records: dict[int, tuple[int, int]] = {}
        root = aspace.root_fn
        if confined and len(confined) == n and len(
                set(map(self.confined_owner.__getitem__, confined))) == 1 and (
                    self.confined_mapping.keys().isdisjoint(confined)):
            # n distinct frames of one sandbox, none mapped yet
            expected = self.sandbox_aspace.get(self.confined_owner[fns[0]])
            if expected is not None and root == expected.root_fn:
                records = dict(zip(fns[:n], zip(
                    repeat(root), range(va, va + n * stride, stride))))
            else:
                n = 0
        elif confined:
            for i in range(n):
                fn = fns[i]
                if fn not in confined:
                    continue
                expected = self.sandbox_aspace.get(self.confined_owner[fn])
                mapping = (root, va + i * stride)
                existing = records.get(fn) or self.confined_mapping.get(fn)
                if (expected is None or root != expected.root_fn
                        or existing is not None and existing != mapping):
                    n = i
                    break
                records[fn] = mapping
        for region, a, b in regions:
            if a < n:
                region.mappings.append(
                    (aspace, va + a * stride, stride, min(b, n) - a))
        self.confined_mapping.update(records)
        return n

    def _set_pte(self, aspace: AddressSpace, va: int, pte: int) -> None:
        aspace.set_pte(va, pte)
        self._record(aspace, va, pte_frame(pte))

    def _record(self, aspace: AddressSpace, va: int, fn: int) -> None:
        """Note the mapping of a confined frame (the C6 single-mapping
        registry)."""
        if fn in self.confined_owner:
            self.confined_mapping[fn] = (aspace.root_fn, va)

    def _validate_mapping(self, aspace: AddressSpace, va: int, pte: int) -> None:
        """Refuse ``pte`` at ``va`` if it breaks a mapping policy. A frame
        without a built :class:`~repro.hw.memory.Frame` has no type
        flags."""
        fn = pte_frame(pte)
        owner = self.phys.owner_of(fn)      # raises outside memory
        frame = self.phys.frames.get(fn)
        writable = bool(pte & PTE_W)
        user = bool(pte & PTE_U)
        executable = not pte & PTE_NX

        if owner == "monitor":
            raise PolicyViolation(
                f"mapping monitor frame {fn:#x} into {aspace.name} refused")
        if frame is not None and frame.is_page_table and writable:
            raise PolicyViolation(
                f"writable mapping of page-table frame {fn:#x} refused")
        if frame is not None and frame.is_shadow_stack and writable:
            raise PolicyViolation(
                f"writable mapping of shadow-stack frame {fn:#x} refused")
        if owner == "ktext":
            if writable:
                raise PolicyViolation(
                    f"W^X: writable mapping of kernel text frame {fn:#x} refused")
        elif executable and not user and writable:
            raise PolicyViolation(
                f"W^X: writable+executable supervisor mapping of {fn:#x} refused")

        if fn in self.template_frames and writable:
            raise PolicyViolation(
                f"template frame {fn:#x} ({self.template_frames[fn]!r}) is "
                f"a sealed fork image; writable mapping refused")

        owner_sandbox = self.confined_owner.get(fn)
        if owner_sandbox is not None:
            expected = self.sandbox_aspace.get(owner_sandbox)
            if expected is None or aspace.root_fn != expected.root_fn:
                raise PolicyViolation(
                    f"confined frame {fn:#x} (sandbox {owner_sandbox}) cannot "
                    f"map into foreign address space {aspace.name}")
            existing = self.confined_mapping.get(fn)
            if existing is not None and existing != (aspace.root_fn, va):
                raise PolicyViolation(
                    f"double mapping of confined frame {fn:#x} refused "
                    f"(already mapped at {existing[1]:#x})")

        region = (self.common_regions.get(owner[7:])
                  if owner.startswith("common:") else None)
        if region is not None and writable and not region.writable:
            raise PolicyViolation(
                f"common region {region.name!r} is sealed read-only; "
                f"writable mapping of frame {fn:#x} refused")
        if region is not None and region.writable and pte & PTE_P:
            # a sealed region refuses writable mappings, so the
            # read-only ones made after the seal need no revocation
            region.mappings.append((aspace, va & ~0xFFF, PAGE_SIZE, 1))

    # ------------------------------------------------------------------ #
    # huge pages and forced splitting (paper §7 future work)
    # ------------------------------------------------------------------ #

    def write_huge_pte(self, aspace: AddressSpace, va: int, fn_start: int,
                       flags: int, pkey: int = 0) -> None:
        """Install one validated 2 MiB mapping.

        Every 4 KiB frame under the mapping passes the same policy as a
        small mapping (monitor frames, PTPs, confined ownership); the
        whole install is one EMC-visible operation with a single PTE
        write, which is exactly why huge pages make prefaulting cheap.
        """
        if aspace.root_fn not in self.registered_roots:
            raise PolicyViolation(
                f"address space root {aspace.root_fn:#x} not registered")
        for i in range(HUGE_PAGE_FRAMES):
            self._validate_mapping(aspace, va + (i << 12),
                                   make_pte(fn_start + i, flags | PTE_P, pkey))
        self.clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")
        self.clock.count("pte_write")
        self.clock.count("huge_map")
        aspace.map_huge_page(va, fn_start, flags, pkey)

    def force_split(self, aspace: AddressSpace, va: int) -> None:
        """Shatter a huge mapping so 4 KiB-granular policy can apply.

        PKS keys and read-only sealing operate per 4 KiB PTE; when policy
        must change for a subrange of a 2 MiB mapping, the monitor splits
        it first (one batched operation: 512 PTE writes)."""
        if aspace.translate(va) is None:
            raise PolicyViolation(f"force_split: {va:#x} not mapped")
        slot = aspace.split_huge_page(va)
        if slot is None:
            return  # already 4 KiB-mapped
        self.clock.charge(HUGE_PAGE_FRAMES * Cost.PTE_WRITE_NATIVE, "mmu_op")
        self.clock.count("pte_write", HUGE_PAGE_FRAMES)
        self.clock.count("huge_split")

    def set_pkey_4k(self, aspace: AddressSpace, va: int, pkey: int) -> None:
        """Assign a protection key to one 4 KiB page, splitting if needed."""
        hit = aspace.translate(va)
        if hit is None:
            raise PolicyViolation(f"set_pkey: {va:#x} not mapped")
        _, pte = hit
        if pte & PTE_PS:
            self.force_split(aspace, va)
            _, pte = aspace.translate(va)
        page_va = va & ~0xFFF
        new = make_pte(pte_frame(pte), pte & ~(0xF << 59), pkey)
        self.write_pte(aspace, page_va, new)

    # ------------------------------------------------------------------ #
    # common-memory write revocation (at sandbox lock)
    # ------------------------------------------------------------------ #

    def seal_common_region(self, name: str) -> int:
        """Close the initialization window: flip all mappings read-only.

        Returns the number of PTEs rewritten. Batched: one EMC covers the
        sweep (the paper's batched-MMU-update optimization), with per-PTE
        native write costs booked as one charge.

        The sweep handles each recorded run in one pass over its leaf
        table: its entries are read in one slice, the owner test is made
        once for the frames they map when those lie in one owner extent,
        and the cleared W bits go back in one slice write. It clears W
        only on entries that are present, writable and still map a frame
        of this region: a VA unmapped from the region may map other
        memory by now. The record is dropped afterwards, since a sealed
        region refuses writable mappings and so records none.
        """
        region = self.common_regions[name]
        region.writable = False
        owner = f"common:{name}"
        rewritten = 0
        for aspace, va, stride, count in region.mappings:
            rewritten += self._seal_table(
                aspace, range(va, va + count * stride, stride), owner)
        region.mappings.clear()
        if rewritten:
            self.clock.charge(rewritten * Cost.PTE_WRITE_NATIVE, "mmu_op")
        return rewritten

    def _seal_table(self, aspace: AddressSpace, vas: range,
                    owner: str) -> int:
        """Clear W on the present, writable entries that map ``vas``, a
        run inside one leaf table, whose frames ``owner`` owns; returns
        how many (a VA recorded twice finds W already cleared)."""
        leaf = self._leaf_table(aspace, vas[0])
        if leaf is None:
            return 0
        table, data, huge_off = leaf
        phys = self.phys
        num_frames = phys.num_frames
        if huge_off is not None:
            pte = int.from_bytes(data[huge_off:huge_off + 8], "little")
            fn = pte_frame(pte)
            if (pte & (PTE_P | PTE_W) == PTE_P | PTE_W and fn < num_frames
                    and phys.owner_of(fn) == owner):
                data[huge_off] &= ~PTE_W & 0xFF
                table.version += 1
                return 1
            return 0
        first, step = (vas[0] >> 12) & 0x1FF, vas.step >> 12
        entries = slice(first * 8, first * 8 + (len(vas) - 1) * step * 8 + 1,
                        step * 8)
        low = data[entries]
        if low.translate(_SEALABLE).count(1) == len(low):
            # every entry of the run: one owner test, one slice write
            fns = [(word & PTE_FRAME_MASK) >> 12 for word in
                   table_words(data, first, len(low), step)]
            if (max(fns) < num_frames
                    and phys.run_owner(min(fns), max(fns)) == owner):
                data[entries] = low.translate(_CLEAR_W)
                table.version += len(low)
                return len(low)
        words = table_words(data, first, len(low), step)
        hits = [i for i, word in enumerate(words)
                if word & (PTE_P | PTE_W) == PTE_P | PTE_W]
        if not hits:
            return 0
        fns = [(words[i] & PTE_FRAME_MASK) >> 12 for i in hits]
        if not (max(fns) < num_frames
                and phys.run_owner(min(fns), max(fns)) == owner):
            hits = [i for i, fn in zip(hits, fns)
                    if fn < num_frames and phys.owner_of(fn) == owner]
            if not hits:
                return 0
        for i in hits:
            words[i] &= ~PTE_W
        store_table_words(data, first, step, words)
        table.version += len(hits)
        return len(hits)

    def seal_ranges(self, aspace: AddressSpace,
                    ranges: list[tuple[int, int]]) -> int:
        """Clear W on every present, writable leaf entry of ``aspace``
        that maps a page of ``ranges`` (``(start, end)`` VA pairs).

        Returns the number of entries rewritten; a huge leaf is one
        entry. Like :meth:`seal_common_region`, each leaf table is swept
        once per 2 MiB span and the per-PTE native write costs are
        booked as one charge.
        """
        rewritten = 0
        for va, end in ranges:
            while va < end:
                stop = min(end, (va | (HUGE_PAGE_SIZE - 1)) + 1)
                leaf = self._leaf_table(aspace, va)
                if leaf is not None:
                    table, data, huge_off = leaf
                    offsets = ((huge_off,) if huge_off is not None else
                               range((va >> 9) & 0xFF8,
                                     ((stop - 1) >> 9 & 0xFF8) + 8, 8))
                    for off in offsets:
                        if data[off] & (PTE_P | PTE_W) == PTE_P | PTE_W:
                            data[off] &= ~PTE_W & 0xFF
                            table.version += 1
                            rewritten += 1
                va = stop
        if rewritten:
            self.clock.charge(rewritten * Cost.PTE_WRITE_NATIVE, "mmu_op")
        return rewritten

    def _leaf_table(self, aspace: AddressSpace, va: int) -> tuple | None:
        """``(frame, bytes, huge entry offset or None)`` of the table that
        holds the leaf entry of ``va``; None when no entry is present."""
        path = aspace.leaf_path(va)
        if path is None:
            return None
        slot, (huge, *_) = path
        table = self.phys.frame(slot.table_fn)
        if table.data is None:
            return None
        return table, table.data, slot.index * 8 if huge else None

"""The seal sweeps: one pass per leaf table.

:meth:`NestedMmu.seal_common_region` walks each leaf table its recorded
mappings sit in once. Twin rigs record the same mappings; one seals with
the sweep, the other with :func:`reference_seal`, which reads and rewrites
one PTE at a time. Every PTE, the return count and the clock's ledgers in
insertion order must match, and every table the sweep rewrote must show a
moved ``Frame.version``.

:meth:`NestedMmu.seal_ranges`, which ``EreborMonitor.seal_as_template``
uses, is held to :func:`per_page_seal`, the template seal's per-page loop,
the same way: on the rigs, and on twin systems sealing a template, where
the twin's monitor seals with the loop in place of the sweep.
"""

import pytest

from repro.core import erebor_boot
from repro.core.nested_mmu import NestedMmu
from repro.hw.cycles import Cost, CycleClock
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.paging import (
    HUGE_PAGE_FRAMES,
    HUGE_PAGE_SIZE,
    PTE_NX,
    PTE_P,
    PTE_U,
    PTE_W,
    AddressSpace,
    make_pte,
    pte_frame,
)
from repro.kernel.process import PROT_READ, PROT_WRITE
from repro.vm import CvmMachine, MachineConfig, MIB
from tests.machine_state import present_leaves

RW = PTE_P | PTE_W | PTE_U | PTE_NX
RO = PTE_P | PTE_U | PTE_NX


def reference_seal(vmmu, name):
    """The seal one PTE at a time: read, then rewrite if still writable."""
    region = vmmu.common_regions[name]
    region.writable = False
    rewritten = 0
    seen = set()
    for aspace, va in region.mappings:
        if (aspace.root_fn, va) in seen:
            continue
        seen.add((aspace.root_fn, va))
        pte = aspace.get_pte(va)
        if (pte & PTE_P and pte & PTE_W
                and vmmu.phys.owner_of(pte_frame(pte)) == f"common:{name}"):
            aspace.set_pte(va, pte & ~PTE_W)
            vmmu.clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")
            rewritten += 1
    region.mappings.clear()
    return rewritten


def per_page_seal(vmmu, aspace, ranges):
    """Clear W one page at a time: read each PTE, rewrite it if present
    and writable, one charge per rewrite."""
    rewritten = 0
    for start, end in ranges:
        for va in range(start, end, PAGE_SIZE):
            pte = aspace.get_pte(va)
            if pte & PTE_P and pte & PTE_W:
                aspace.set_pte(va, pte & ~PTE_W)
                vmmu.clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")
                rewritten += 1
    return rewritten


def build(layout):
    """A rig whose common region ``db`` was mapped into three address
    spaces over several leaf tables while writable."""
    phys = PhysicalMemory(128 * MIB)
    clock = CycleClock()
    clock.ensure_cpus(2)
    vmmu = NestedMmu(phys, clock)
    spaces = [AddressSpace(phys, f"as{i}") for i in range(3)]
    for i, aspace in enumerate(spaces):
        vmmu.register_sandbox(i + 1, aspace)
    clock.charge(100, "boot")             # a tag inserted before the seal
    if layout == "huge":
        run = phys.alloc_frames(2 * HUGE_PAGE_FRAMES, "tmp", contiguous=True)
        base = -run[0] % HUGE_PAGE_FRAMES + run[0]
        frames = list(range(base, base + HUGE_PAGE_FRAMES))
        vmmu.create_common_region("db", frames, initializer=1)
        vmmu.write_huge_pte(spaces[0], 4 * HUGE_PAGE_SIZE, base,
                            PTE_W | PTE_U | PTE_NX)
        vmmu.write_pte(spaces[1], 0x40_0000, make_pte(frames[3], RW))
        return phys, clock, vmmu, spaces
    frames = phys.alloc_frames(12, "tmp")
    vmmu.create_common_region("db", frames, initializer=1)
    flags = RO if layout == "read-only" else RW
    for i, aspace in enumerate(spaces):
        for page, fn in enumerate(frames):
            # two 2 MiB regions per address space, interleaved
            va = (i + 1) * HUGE_PAGE_SIZE * 8 + (page % 2) * HUGE_PAGE_SIZE \
                + page * PAGE_SIZE
            vmmu.write_pte(aspace, va, make_pte(fn, flags))
    if layout == "mixed":
        region = vmmu.common_regions["db"]
        # duplicates: the same mapping recorded twice (in another order)
        region.mappings.extend(reversed(region.mappings[:5]))
        # not present: unmapped after the recording
        vmmu.write_pte(spaces[0], region.mappings[1][1], 0)
        # already read-only
        vmmu.write_pte(spaces[1], region.mappings[14][1],
                       make_pte(frames[2], RO))
        # remapped to memory that is not the region's
        other = phys.alloc_frame("sandbox:3")
        vmmu.write_pte(spaces[2], region.mappings[26][1],
                       make_pte(other, RW))
    return phys, clock, vmmu, spaces


def state(phys, clock, vmmu, spaces):
    return {
        "ptes": [list(present_leaves(phys, aspace.root_fn))
                 for aspace in spaces],
        "huge": spaces[0].get_pte(4 * HUGE_PAGE_SIZE),
        "tags": [(lane, list(tags.items()))
                 for lane, tags in clock.tags_by_cpu.items()],
        "events": [(lane, list(events.items()))
                   for lane, events in clock.events_by_cpu.items()],
        "cycles": clock.cycles,
        "mappings": [(aspace.name, va) for aspace, va
                     in vmmu.common_regions["db"].mappings],
    }


@pytest.mark.parametrize("layout", ["mixed", "read-only", "huge"])
def test_seal_sweep_matches_per_pte_reference(layout):
    rig = build(layout)
    phys, clock, vmmu, spaces = rig
    recorded = list(vmmu.common_regions["db"].mappings)
    before = [(aspace.get_pte(va),
               phys.frame(aspace.leaf_slot(va).table_fn).version)
              for aspace, va in recorded]
    # seal on a lane with no ledger yet, where any charge inserts a key
    with clock.on_cpu(1):
        swept = vmmu.seal_common_region("db")
    twin = build(layout)
    with twin[1].on_cpu(1):
        expected = reference_seal(twin[2], "db")
    assert swept == expected
    assert state(*rig) == state(*twin)
    assert list(clock.tags_by_cpu.get(1, {})) == (["mmu_op"] if swept else [])
    assert swept == {"mixed": 33, "read-only": 0, "huge": 2}[layout]
    # every table holding a rewritten PTE moved its version
    for (aspace, va), (pte, version) in zip(recorded, before):
        if aspace.get_pte(va) != pte:
            assert phys.frame(aspace.leaf_slot(va).table_fn).version > version


#: VA ranges per rig layout: a range that starts and ends inside a leaf
#: table and crosses into the next, one over no table, and for the huge
#: layout two ranges under the same 2 MiB leaf
RANGES = {
    "mixed": [(16 * MIB + 2 * PAGE_SIZE, 18 * MIB + 10 * PAGE_SIZE),
              (0, PAGE_SIZE)],
    "huge": [(0x40_0000, 0x40_0000 + 4 * PAGE_SIZE),
             (8 * MIB + 5 * PAGE_SIZE, 8 * MIB + 9 * PAGE_SIZE),
             (8 * MIB + 100 * PAGE_SIZE, 8 * MIB + 101 * PAGE_SIZE)],
}


@pytest.mark.parametrize("layout", sorted(RANGES))
def test_range_seal_matches_per_page_reference(layout):
    rig = build(layout)
    twin = build(layout)
    swept = expected = 0
    for aspace, twin_aspace in zip(rig[3], twin[3]):
        with rig[1].on_cpu(1):
            swept += rig[2].seal_ranges(aspace, RANGES[layout])
        with twin[1].on_cpu(1):
            expected += per_page_seal(twin[2], twin_aspace, RANGES[layout])
    assert swept == expected == {"mixed": 9, "huge": 2}[layout]
    assert state(*rig) == state(*twin)


def template_rig():
    """A pre-lock sandbox whose confined heap spans two leaf tables, with
    pages never touched, pages touched for reading and one page already
    read-only."""
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    system = erebor_boot(machine, cma_bytes=32 * MIB)
    kernel = system.kernel
    sandbox = system.monitor.create_sandbox("tmpl", confined_budget=8 * MIB)
    heap = sandbox.declare_confined(HUGE_PAGE_SIZE + 8 * PAGE_SIZE,
                                    prefault=False)
    kernel.touch_pages(sandbox.task, heap.start, 6 * PAGE_SIZE, write=True)
    kernel.touch_pages(sandbox.task, heap.end - 12 * PAGE_SIZE,
                       8 * PAGE_SIZE)
    aspace = sandbox.task.aspace
    system.monitor.vmmu.write_pte(
        aspace, heap.start, aspace.get_pte(heap.start) & ~PTE_W)
    return system, sandbox


def test_template_seal_sweep_matches_per_page_reference():
    system, sandbox = template_rig()
    twin, twin_sandbox = template_rig()
    vmmu = twin.monitor.vmmu
    vmmu.seal_ranges = lambda aspace, ranges: per_page_seal(vmmu, aspace,
                                                            ranges)
    frames = system.monitor.seal_as_template(sandbox, "golden")
    assert frames == twin.monitor.seal_as_template(twin_sandbox, "golden")
    assert (list(present_leaves(system.machine.phys,
                                sandbox.task.aspace.root_fn))
            == list(present_leaves(twin.machine.phys,
                                   twin_sandbox.task.aspace.root_fn)))
    clock, twin_clock = system.machine.clock, twin.machine.clock
    for ledger in ("tags_by_cpu", "events_by_cpu"):
        assert ([(lane, list(tags.items()))
                 for lane, tags in getattr(clock, ledger).items()]
                == [(lane, list(tags.items()))
                    for lane, tags in getattr(twin_clock, ledger).items()])
    audit = system.monitor.audit_log[-1].detail
    assert audit == twin.monitor.audit_log[-1].detail
    assert audit.endswith("(584 frames, 77 PTEs flipped read-only)"), audit
    assert system.monitor.audit_head == twin.monitor.audit_head


def test_seal_spares_pages_that_no_longer_map_the_region():
    """A VA the region was unmapped from keeps its new mapping's rights."""
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    system = erebor_boot(machine, cma_bytes=32 * MIB)
    kernel = system.kernel
    sandbox = system.monitor.create_sandbox("init", confined_budget=4 * MIB)
    sandbox.declare_confined(PAGE_SIZE)
    task = sandbox.task
    common = sandbox.attach_common("db", 4 * PAGE_SIZE, initializer=True)
    start = common.start
    kernel.touch_pages(task, start, common.length, write=True)
    kernel.munmap(task, common)
    private = kernel.mmap(task, 4 * PAGE_SIZE, PROT_READ | PROT_WRITE,
                          fixed_va=start)
    kernel.touch_pages(task, start, private.length, write=True)
    sandbox.install_input(b"client data")
    assert not system.monitor.vmmu.common_regions["db"].writable
    for page in range(4):
        pte = task.aspace.get_pte(start + page * PAGE_SIZE)
        assert machine.phys.frame(pte_frame(pte)).owner == task.owner_tag
        assert pte & PTE_W
    assert system.monitor.vmmu.common_regions["db"].mappings == []

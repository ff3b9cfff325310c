"""Unit tests for the three-level page tables."""

import pytest

from repro.hw.errors import SimulatorError
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.paging import (
    HUGE_PAGE_FRAMES,
    PTE_NX,
    PTE_P,
    PTE_U,
    PTE_W,
    AddressSpace,
    make_pte,
    pte_frame,
    pte_pkey,
    va_indices,
)
from tests.machine_state import present_leaves


@pytest.fixture
def phys():
    return PhysicalMemory(256 * 1024 * 1024)


@pytest.fixture
def aspace(phys):
    return AddressSpace(phys, "test")


def test_va_indices_split():
    va = (3 << 30) | (5 << 21) | (7 << 12) | 0x123
    assert va_indices(va) == (3, 5, 7)


def test_va_out_of_range():
    with pytest.raises(SimulatorError):
        va_indices(1 << 39)


def test_pte_compose_extract():
    pte = make_pte(0x1234, PTE_P | PTE_W, pkey=9)
    assert pte_frame(pte) == 0x1234
    assert pte_pkey(pte) == 9
    assert pte & PTE_P and pte & PTE_W


def test_pkey_range_checked():
    with pytest.raises(SimulatorError):
        make_pte(1, PTE_P, pkey=16)


def test_map_translate_roundtrip(phys, aspace):
    fn = phys.alloc_frame("data")
    aspace.map_page(0x40_0000, fn, PTE_P | PTE_W | PTE_U)
    hit = aspace.translate(0x40_0123)
    assert hit is not None
    pa, pte = hit
    assert pa == (fn << 12) | 0x123
    assert pte & PTE_U


def test_translate_unmapped_returns_none(aspace):
    assert aspace.translate(0x123_4000) is None


def test_clear_pte(phys, aspace):
    fn = phys.alloc_frame("data")
    aspace.map_page(0x40_0000, fn, PTE_P)
    aspace.clear_pte(0x40_0000)
    assert aspace.translate(0x40_0000) is None


def test_interior_tables_created_once(phys, aspace):
    before = len(aspace.table_frames)
    aspace.map_page(0x40_0000, phys.alloc_frame("d"), PTE_P)
    mid = len(aspace.table_frames)
    aspace.map_page(0x40_1000, phys.alloc_frame("d"), PTE_P)  # same leaf table
    assert len(aspace.table_frames) == mid
    assert mid == before + 2  # one L1 + one L0 table


def test_table_frames_flagged_as_page_tables(phys, aspace):
    aspace.map_page(0x40_0000, phys.alloc_frame("d"), PTE_P)
    for fn in aspace.table_frames:
        assert phys.frame(fn).is_page_table


def test_distant_vas_use_distinct_leaf_tables(phys, aspace):
    aspace.map_page(0x40_0000, phys.alloc_frame("d"), PTE_P)
    n = len(aspace.table_frames)
    aspace.map_page(8 << 30, phys.alloc_frame("d"), PTE_P)  # different L2 slot
    assert len(aspace.table_frames) == n + 2


def test_leaf_slot_physical_location_is_real(phys, aspace):
    fn = phys.alloc_frame("d")
    slot = aspace.map_page(0x40_0000, fn, PTE_P | PTE_W)
    # overwrite the PTE through raw physical memory: the mapping must change
    phys.write_u64(slot.pa, make_pte(fn, PTE_P))  # drop W bit
    _, pte = aspace.translate(0x40_0000)
    assert not pte & PTE_W


def test_present_leaves_enumerates(phys, aspace):
    fns = [phys.alloc_frame("d") for _ in range(3)]
    for i, fn in enumerate(fns):
        aspace.map_page(0x40_0000 + i * PAGE_SIZE, fn, PTE_P | PTE_NX)
    ranges = list(present_leaves(phys, aspace.root_fn))
    assert len(ranges) == 3
    assert [va for va, _ in ranges] == [0x40_0000, 0x40_1000, 0x40_2000]


def test_present_leaves_reads_a_huge_leaf_not_its_data(phys, aspace):
    """A 2 MiB mapping is one leaf, its PS entry: the first word of the
    data it maps is not read as a PTE, even when it looks like one."""
    fn = HUGE_PAGE_FRAMES            # frame 0x200, 2 MiB-aligned
    aspace.map_huge_page(0x80_0000, fn, PTE_W)
    phys.write_u64(fn * PAGE_SIZE, 0x5001)
    assert list(present_leaves(phys, aspace.root_fn)) == [
        (0x80_0000, 0x200083)]

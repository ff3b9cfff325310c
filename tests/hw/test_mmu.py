"""Unit tests for the MMU permission pipeline: SMEP/SMAP/NX/WP/PKS."""

import pytest

from repro.hw import regs
from repro.hw.cycles import CycleClock
from repro.hw.errors import PageFault
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.mmu import KERNEL_MODE, USER_MODE, AccessContext, Mmu
from repro.hw.paging import PTE_A, PTE_D, PTE_NX, PTE_P, PTE_U, PTE_W, AddressSpace

USER_VA = 0x40_0000
KERN_VA = 0x60_0000_0000


@pytest.fixture
def rig():
    phys = PhysicalMemory(64 * 1024 * 1024)
    mmu = Mmu(phys, CycleClock())
    aspace = AddressSpace(phys)
    return phys, mmu, aspace


def kctx(**kw):
    defaults = dict(mode=KERNEL_MODE,
                    cr0=regs.CR0_PE | regs.CR0_PG | regs.CR0_WP,
                    cr4=regs.CR4_SMEP | regs.CR4_SMAP | regs.CR4_PKS)
    defaults.update(kw)
    return AccessContext(**defaults)


def uctx(**kw):
    return kctx(mode=USER_MODE, **kw)


def map_user(phys, aspace, va=USER_VA, flags=PTE_P | PTE_W | PTE_U, pkey=0):
    fn = phys.alloc_frame("user")
    aspace.map_page(va, fn, flags, pkey)
    return fn


def map_kernel(phys, aspace, va=KERN_VA, flags=PTE_P | PTE_W, pkey=0):
    fn = phys.alloc_frame("kernel")
    aspace.map_page(va, fn, flags, pkey)
    return fn


def test_not_present_faults(rig):
    _, mmu, aspace = rig
    with pytest.raises(PageFault) as exc:
        mmu.check(aspace, 0xDEAD000, "read", kctx())
    assert not exc.value.present


def test_user_cannot_touch_supervisor_page(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace)
    with pytest.raises(PageFault) as exc:
        mmu.check(aspace, KERN_VA, "read", uctx())
    assert exc.value.present and exc.value.is_user


def test_user_access_to_user_page_ok(rig):
    phys, mmu, aspace = rig
    map_user(phys, aspace)
    mmu.check(aspace, USER_VA, "read", uctx())
    mmu.check(aspace, USER_VA, "write", uctx())


def test_smep_blocks_kernel_exec_of_user_page(rig):
    phys, mmu, aspace = rig
    map_user(phys, aspace)
    with pytest.raises(PageFault):
        mmu.check(aspace, USER_VA, "exec", kctx())
    # without SMEP the fetch is allowed
    mmu.check(aspace, USER_VA, "exec", kctx(cr4=regs.CR4_SMAP | regs.CR4_PKS))


def test_smap_blocks_kernel_data_access_to_user_page(rig):
    phys, mmu, aspace = rig
    map_user(phys, aspace)
    with pytest.raises(PageFault):
        mmu.check(aspace, USER_VA, "read", kctx())
    with pytest.raises(PageFault):
        mmu.check(aspace, USER_VA, "write", kctx())


def test_stac_ac_flag_suspends_smap(rig):
    phys, mmu, aspace = rig
    map_user(phys, aspace)
    mmu.check(aspace, USER_VA, "read", kctx(ac=True))
    mmu.check(aspace, USER_VA, "write", kctx(ac=True))


def test_nx_blocks_exec(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, flags=PTE_P | PTE_W | PTE_NX)
    with pytest.raises(PageFault):
        mmu.check(aspace, KERN_VA, "exec", kctx())
    mmu.check(aspace, KERN_VA, "read", kctx())


def test_user_write_to_readonly_faults(rig):
    phys, mmu, aspace = rig
    map_user(phys, aspace, flags=PTE_P | PTE_U)
    with pytest.raises(PageFault):
        mmu.check(aspace, USER_VA, "write", uctx())
    mmu.check(aspace, USER_VA, "read", uctx())


def test_cr0_wp_gates_kernel_writes_to_readonly(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, flags=PTE_P)  # read-only supervisor page
    with pytest.raises(PageFault):
        mmu.check(aspace, KERN_VA, "write", kctx())
    # with WP clear, supervisor writes bypass PTE.W (the attack Erebor
    # prevents by making CR0 writes sensitive)
    mmu.check(aspace, KERN_VA, "write", kctx(cr0=regs.CR0_PE | regs.CR0_PG))


def test_pks_access_disable(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, pkey=1)
    pkrs = regs.pkrs_value(k1=regs.PKR_AD)
    with pytest.raises(PageFault) as exc:
        mmu.check(aspace, KERN_VA, "read", kctx(pkrs=pkrs))
    assert exc.value.pkey_violation


def test_pks_write_disable_allows_read(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, pkey=2)
    pkrs = regs.pkrs_value(k2=regs.PKR_WD)
    mmu.check(aspace, KERN_VA, "read", kctx(pkrs=pkrs))
    with pytest.raises(PageFault) as exc:
        mmu.check(aspace, KERN_VA, "write", kctx(pkrs=pkrs))
    assert exc.value.pkey_violation


def test_pks_ignored_when_cr4_pks_clear(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, pkey=2)
    pkrs = regs.pkrs_value(k2=regs.PKR_AD | regs.PKR_WD)
    mmu.check(aspace, KERN_VA, "write",
              kctx(cr4=regs.CR4_SMEP | regs.CR4_SMAP, pkrs=pkrs))


def test_pks_does_not_apply_to_user_pages(rig):
    phys, mmu, aspace = rig
    map_user(phys, aspace, pkey=3)
    pkrs = regs.pkrs_value(k3=regs.PKR_AD)
    mmu.check(aspace, USER_VA, "read", uctx(pkrs=pkrs))


def test_pks_does_not_block_instruction_fetch(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, pkey=1)
    pkrs = regs.pkrs_value(k1=regs.PKR_AD)
    mmu.check(aspace, KERN_VA, "exec", kctx(pkrs=pkrs))


def test_accessed_dirty_bits_maintained(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace)
    mmu.check(aspace, KERN_VA, "read", kctx())
    _, pte = aspace.translate(KERN_VA)
    assert pte & PTE_A and not pte & PTE_D
    mmu.check(aspace, KERN_VA, "write", kctx())
    _, pte = aspace.translate(KERN_VA)
    assert pte & PTE_D


def test_shadow_stack_page_rejects_normal_writes(rig):
    phys, mmu, aspace = rig
    fn = phys.alloc_frame("ss")
    phys.frame(fn).is_shadow_stack = True
    aspace.map_page(KERN_VA, fn, PTE_P)  # non-writable-but-shadow
    with pytest.raises(PageFault):
        mmu.check(aspace, KERN_VA, "write", kctx())
    mmu.check(aspace, KERN_VA, "write", kctx(shadow_stack_op=True))


def test_shadow_stack_op_rejects_normal_pages(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace)
    with pytest.raises(PageFault):
        mmu.check(aspace, KERN_VA, "write", kctx(shadow_stack_op=True))


def test_checked_read_write_roundtrip(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace)
    mmu.write(aspace, KERN_VA + 16, b"hello", kctx())
    assert mmu.read(aspace, KERN_VA + 16, 5, kctx()) == b"hello"


def test_cross_page_write_checks_both_pages(rig):
    phys, mmu, aspace = rig
    map_kernel(phys, aspace, va=KERN_VA)
    # second page read-only
    map_kernel(phys, aspace, va=KERN_VA + PAGE_SIZE, flags=PTE_P)
    with pytest.raises(PageFault):
        mmu.write(aspace, KERN_VA + PAGE_SIZE - 2, b"abcd", kctx())


# --------------------------------------------------------------------------- #
# check_run: a span whose last frame the re-check refuses
# --------------------------------------------------------------------------- #

#: pages of the missing span; its last frame is a shadow-stack frame
SPAN_PAGES = 3
SPAN_FLAGS = PTE_P | PTE_W | PTE_U | PTE_NX


def _span_rig(held):
    """A fresh rig and the span's frames; with ``held``, the leaf table
    already exists (a page mapped past the span)."""
    phys = PhysicalMemory(64 * 1024 * 1024)
    mmu, aspace = Mmu(phys, CycleClock()), AddressSpace(phys)
    fns = [phys.alloc_frame("user") for _ in range(SPAN_PAGES)]
    phys.frame(fns[-1]).is_shadow_stack = True
    if held:
        map_user(phys, aspace, va=USER_VA + 8 * PAGE_SIZE)
    return phys, mmu, aspace, fns


def _span_ptes(aspace):
    return [aspace.get_pte(USER_VA + i * PAGE_SIZE)
            for i in range(SPAN_PAGES + 1)]


@pytest.mark.parametrize("held", [False, True], ids=["new-table", "held"])
def test_check_run_span_refused_by_recheck_raises_as_check(held):
    """A fault run hands back a span whose last frame maps a shadow-stack
    frame writable: the walk installs it as resolved and its re-check
    raises exactly as per-page ``check`` does after the same installs."""
    _, mmu, aspace, fns = _span_rig(held)
    calls = []

    def span(va, count, passed, recheck, table_held):
        calls.append((va, count, passed, table_held))
        passed_frames = recheck(SPAN_FLAGS, fns)
        assert passed_frames == SPAN_PAGES - 1
        # the fault run returns the pages it admitted and the refused one
        return SPAN_FLAGS, fns[:passed_frames + 1]

    def visit(va, passed):
        raise AssertionError(f"page {va:#x} visited")

    with pytest.raises(PageFault) as spanned:
        mmu.check_run(aspace, USER_VA, USER_VA + SPAN_PAGES * PAGE_SIZE,
                      PAGE_SIZE, "write", uctx(), visit, span)
    assert calls == [(USER_VA, SPAN_PAGES, 0, held)]
    assert mmu.run_pages == SPAN_PAGES - 1

    _, ref_mmu, ref_aspace, ref_fns = _span_rig(held)
    assert ref_fns == fns
    with pytest.raises(PageFault) as checked:
        for i, fn in enumerate(fns):
            va = USER_VA + i * PAGE_SIZE
            ref_aspace.map_page(va, fn, SPAN_FLAGS)
            ref_mmu.check(ref_aspace, va, "write", uctx())
    assert str(spanned.value) == str(checked.value)
    assert vars(spanned.value) == vars(checked.value)
    assert _span_ptes(aspace) == _span_ptes(ref_aspace)
    ptes = _span_ptes(aspace)
    assert all(pte & PTE_A and pte & PTE_D for pte in ptes[:-2])
    assert not ptes[-2] & (PTE_A | PTE_D) and not ptes[-1]

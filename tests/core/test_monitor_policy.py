"""Monitor policy + MonitorOps tests: Table 4 direct costs and denials."""

import pytest

from repro.core import PolicyViolation, erebor_boot
from repro.core.policy import validate_cr_write, validate_msr_write
from repro.hw import regs
from repro.hw.cycles import Cost
from repro.tdx.module import VMCALL_IO
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    return erebor_boot(CvmMachine(MachineConfig(memory_bytes=512 * MIB)),
                       cma_bytes=32 * MIB)


def direct_cost(system, fn) -> int:
    """Cycles excluding the macro uarch-disturbance model."""
    clock = system.machine.clock
    before = clock.snapshot()
    fn()
    delta = clock.since(before)
    return delta.cycles - delta.by_tag.get("uarch", 0)


# --- Table 4: direct op costs through MonitorOps ---------------------------

def test_erebor_pte_write_cost(system):
    task = system.kernel.spawn("t")
    from repro.hw.paging import PTE_P, PTE_U, make_pte
    fn = system.machine.phys.alloc_frame("task:99")
    cost = direct_cost(system, lambda: system.monitor.ops.write_pte(
        task.aspace, 0x40_0000, make_pte(fn, PTE_P | PTE_U)))
    assert cost == Cost.EREBOR_MMU == 1345


def test_erebor_cr_write_cost(system):
    cpu = system.machine.cpu
    value = cpu.crs[4]
    cost = direct_cost(system, lambda: system.monitor.ops.write_cr(4, value))
    assert cost == Cost.EREBOR_CR == 1593


def test_erebor_msr_write_cost(system):
    cost = direct_cost(system, lambda: system.monitor.ops.write_msr(0x999, 1))
    assert cost == Cost.EREBOR_MSR == 1613


def test_erebor_idt_cost(system):
    idt = system.machine.cpu.idt
    cost = direct_cost(system, lambda: system.monitor.ops.load_idt(idt))
    assert cost == Cost.EREBOR_IDT == 1369


def test_erebor_ghci_tdreport_cost(system):
    cost = direct_cost(system, lambda: system.monitor.attest(b"x" * 32))
    assert cost == Cost.EREBOR_GHCI == 128081


def test_erebor_user_copy_cost(system):
    system.kernel.spawn("t")
    cost = direct_cost(system,
                       lambda: system.monitor.ops.user_copy(100, to_user=True))
    assert cost == (Cost.EMC_ROUND_TRIP + Cost.VALIDATE_SMAP
                    + Cost.STAC_CLAC_NATIVE + Cost.USER_COPY_PER_PAGE)


# --- policy validators -------------------------------------------------------

def test_cr4_pinned_bits_enforced():
    with pytest.raises(PolicyViolation):
        validate_cr_write(4, 0)  # clears SMEP/SMAP/PKS/CET
    validate_cr_write(4, regs.CR4_SMEP | regs.CR4_SMAP | regs.CR4_PKS
                      | regs.CR4_CET)


def test_cr0_wp_pinned():
    with pytest.raises(PolicyViolation):
        validate_cr_write(0, regs.CR0_PE | regs.CR0_PG)  # WP cleared
    validate_cr_write(0, regs.CR0_PE | regs.CR0_PG | regs.CR0_WP)


def test_unsupported_cr_rejected():
    with pytest.raises(PolicyViolation):
        validate_cr_write(8, 0)


def test_monitor_owned_msrs_denied_to_kernel():
    for msr in (regs.IA32_PKRS, regs.IA32_S_CET, regs.IA32_PL0_SSP,
                regs.IA32_UINTR_TT):
        with pytest.raises(PolicyViolation):
            validate_msr_write(msr, 0)
    validate_msr_write(0x1234, 0)  # arbitrary MSRs are fine


def test_kernel_cr_write_clearing_protections_denied(system):
    with pytest.raises(PolicyViolation):
        system.monitor.ops.write_cr(4, 0)
    assert system.monitor.stats.policy_denials == 1
    # hardware state unchanged
    assert system.machine.cpu.crs[4] & regs.CR4_SMEP


def test_kernel_pkrs_write_denied(system):
    with pytest.raises(PolicyViolation):
        system.monitor.ops.write_msr(regs.IA32_PKRS, 0)


def test_kernel_lstar_write_is_interposed_not_installed(system):
    from repro.core.gates import PKRS_KERNEL
    before = system.machine.cpu.msrs.get(regs.IA32_LSTAR, 0)
    system.monitor.ops.write_msr(regs.IA32_LSTAR, 0xDEAD_BEEF)
    # the monitor records the kernel's entry but keeps its own interposer
    assert system.monitor.kernel_syscall_entry == 0xDEAD_BEEF
    assert system.machine.cpu.msrs.get(regs.IA32_LSTAR, 0) == before


def test_kernel_tdreport_denied(system):
    with pytest.raises(PolicyViolation):
        system.monitor.ops.tdreport(b"fake")


def test_mapgpa_outside_io_window_denied(system):
    task = system.kernel.spawn("t")
    secret_fn = system.machine.phys.alloc_frame(task.owner_tag)
    with pytest.raises(PolicyViolation):
        system.monitor.ops.map_gpa(secret_fn, 1, shared=True)
    assert not system.machine.tdx.is_shared(secret_fn)


def test_mapgpa_inside_io_window_allowed(system):
    window = sorted(system.machine.phys.owned_by("shm-io"))
    system.monitor.ops.map_gpa(window[0], 2, shared=True)
    assert system.machine.tdx.is_shared(window[0])


def test_vmcall_io_allowed_for_kernel(system):
    result = system.monitor.ops.vmcall(VMCALL_IO, b"ciphertext")
    assert result == 0


def test_cpuid_emulation_uses_cache(system):
    vmm = system.machine.vmm
    before = len([o for o in vmm.observations if o[0] == "vmcall"])
    first = system.monitor.emulated_cpuid()
    second = system.monitor.emulated_cpuid()
    after = len([o for o in vmm.observations if o[0] == "vmcall"])
    assert first == second
    assert after == before + 1  # only one host round trip ever


def test_emc_counting(system):
    before = system.monitor.stats.emc_calls
    system.monitor.ops.write_msr(0x777, 1)
    assert system.monitor.stats.emc_calls == before + 1
    assert system.machine.clock.events["emc"] >= before + 1

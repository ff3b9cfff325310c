"""Per-task kernel shadow stacks + token discipline tests."""

import pytest

from repro.core import erebor_boot
from repro.hw import cet, regs
from repro.hw.cet import ShadowStackTokenError
from repro.kernel import TIMESLICE_TICKS
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    return erebor_boot(machine, cma_bytes=32 * MIB)


def test_each_task_gets_its_own_stack(system):
    a, b = system.kernel.spawn("a"), system.kernel.spawn("b")
    mgr = system.monitor.sst_manager
    ta, tb = mgr.stack_for(a), mgr.stack_for(b)
    assert ta != tb
    assert mgr.stack_for(a) == ta   # stable


def test_stack_frames_are_shadow_stack_typed(system):
    task = system.kernel.spawn("t")
    token_va = system.monitor.sst_manager.stack_for(task)
    fn = system.kernel.kernel_aspace.mapped_frame(token_va)
    assert system.machine.phys.frame(fn).is_shadow_stack
    assert system.machine.phys.frame(fn).owner == "monitor"


def test_context_switch_swaps_ssp_and_tokens(system):
    kernel = system.kernel
    a, b = kernel.spawn("a"), kernel.spawn("b")
    mgr = system.monitor.sst_manager
    mgr.switch(0, None, a)
    ssp_a = system.machine.cpu.msrs[regs.IA32_PL0_SSP]
    assert ssp_a == mgr.stack_for(a)
    # a's token is now busy
    token = cet.read_token(system.machine.phys, kernel.kernel_aspace,
                           mgr.stack_for(a))
    assert token & cet.TOKEN_BUSY
    mgr.switch(0, a, b)
    assert system.machine.cpu.msrs[regs.IA32_PL0_SSP] == mgr.stack_for(b)
    # a's token released, b's busy
    token_a = cet.read_token(system.machine.phys, kernel.kernel_aspace,
                             mgr.stack_for(a))
    token_b = cet.read_token(system.machine.phys, kernel.kernel_aspace,
                             mgr.stack_for(b))
    assert not token_a & cet.TOKEN_BUSY
    assert token_b & cet.TOKEN_BUSY


def test_busy_token_cannot_activate_twice(system):
    """The one-logical-processor-at-a-time rule (§2.2)."""
    kernel = system.kernel
    task = kernel.spawn("t")
    mgr = system.monitor.sst_manager
    token_va = mgr.stack_for(task)
    cet.activate_shadow_stack(system.machine.cpu, kernel.kernel_aspace,
                              token_va, system.machine.phys)
    with pytest.raises(ShadowStackTokenError):
        cet.activate_shadow_stack(system.machine.cpu, kernel.kernel_aspace,
                                  token_va, system.machine.phys)


def test_corrupt_token_refused(system):
    kernel = system.kernel
    task = kernel.spawn("t")
    token_va = system.monitor.sst_manager.stack_for(task)
    hit = kernel.kernel_aspace.translate(token_va)
    system.machine.phys.write_u64(hit[0], 0xDEAD0000)   # forged token
    with pytest.raises(ShadowStackTokenError):
        cet.activate_shadow_stack(system.machine.cpu, kernel.kernel_aspace,
                                  token_va, system.machine.phys)


def test_deactivating_inactive_stack_refused(system):
    kernel = system.kernel
    task = kernel.spawn("t")
    token_va = system.monitor.sst_manager.stack_for(task)
    with pytest.raises(ShadowStackTokenError):
        cet.deactivate_shadow_stack(system.machine.cpu, kernel.kernel_aspace,
                                    token_va, system.machine.phys)


def test_scheduler_drives_sst_switches(system):
    kernel = system.kernel
    kernel.spawn("a")
    kernel.spawn("b")
    before = system.machine.clock.events.get("sst_switch", 0)
    kernel.advance(kernel.tick_period * TIMESLICE_TICKS * 3)
    assert system.machine.clock.events["sst_switch"] > before


def test_kernel_cannot_write_ssp_directly(system):
    from repro.core import PolicyViolation
    with pytest.raises(PolicyViolation):
        system.monitor.ops.write_msr(regs.IA32_PL0_SSP, 0x1234)


def test_sst_switch_charges_an_emc(system):
    kernel = system.kernel
    a, b = kernel.spawn("a"), kernel.spawn("b")
    before = system.machine.clock.events["emc"]
    system.monitor.sst_manager.switch(0, a, b)
    assert system.machine.clock.events["emc"] == before + 1

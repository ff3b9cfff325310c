"""Secure self-paging tests: the controlled channel closes (§6.1)."""

import pytest

from repro.core import erebor_boot
from repro.hw.memory import PAGE_SIZE
from repro.kernel.kernel import GuestKernel
from repro.kernel.process import SegmentationFault
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    return erebor_boot(machine, cma_bytes=64 * MIB)


def make(system, *, secure: bool):
    sandbox = system.monitor.create_sandbox("sb", confined_budget=8 * MIB)
    vma = sandbox.declare_confined(1 * MIB, prefault=False,
                                   secure_paging=secure)
    sandbox.install_input(b"secret")   # lock
    return sandbox, vma


def test_pinned_mode_has_no_runtime_faults(system):
    sandbox = system.monitor.create_sandbox("pinned", confined_budget=8 * MIB)
    vma = sandbox.declare_confined(1 * MIB)   # default: prefault + pin
    sandbox.install_input(b"x")
    faults = system.kernel.touch_pages(sandbox.task, vma.start, 1 * MIB,
                                       write=True)
    assert faults == 0


def test_secure_paging_faults_hide_addresses_from_os(system):
    sandbox, vma = make(system, secure=True)
    kernel = system.kernel
    kernel.fault_log.clear()
    before = system.machine.clock.events["secure_fault"]
    kernel.touch_pages(sandbox.task, vma.start, 8 * PAGE_SIZE, write=True)
    entries = [e for e in kernel.fault_log if e[0] == sandbox.task.pid]
    assert len(entries) == 8
    assert all(va is None for _, va, _ in entries)   # the OS learned nothing
    assert system.machine.clock.events["secure_fault"] - before == 8


def test_ordinary_faults_do_expose_addresses(system):
    """The control: without secure paging the OS handler sees every VA
    (the controlled channel the feature closes)."""
    sandbox, vma = make(system, secure=False)
    kernel = system.kernel
    kernel.fault_log.clear()
    kernel.touch_pages(sandbox.task, vma.start, 4 * PAGE_SIZE, write=True)
    entries = [e for e in kernel.fault_log if e[0] == sandbox.task.pid]
    addresses = [va for _, va, _ in entries]
    assert addresses == [vma.start + i * PAGE_SIZE for i in range(4)]


def test_fault_log_is_a_bounded_ring(monkeypatch):
    """More faults than the ring holds: the newest stay, the overwritten
    ones are counted as dropped."""
    monkeypatch.setattr(GuestKernel, "FAULT_LOG_CAPACITY", 3)
    system = erebor_boot(CvmMachine(MachineConfig(memory_bytes=512 * MIB)),
                         cma_bytes=64 * MIB)
    sandbox, vma = make(system, secure=False)
    kernel = system.kernel
    kernel.fault_log.clear()
    kernel.touch_pages(sandbox.task, vma.start, 8 * PAGE_SIZE, write=True)
    assert (len(kernel.fault_log), kernel.fault_log.dropped) == (3, 5)
    assert [va for _, va, _ in kernel.fault_log] == \
        [vma.start + i * PAGE_SIZE for i in range(5, 8)]


def test_secure_pager_installs_real_mappings(system):
    sandbox, vma = make(system, secure=True)
    system.kernel.touch_pages(sandbox.task, vma.start, PAGE_SIZE, write=True)
    fn = sandbox.task.aspace.mapped_frame(vma.start)
    assert fn in set(sandbox.confined_frames)
    # second touch needs no fault
    assert system.kernel.touch_pages(sandbox.task, vma.start, PAGE_SIZE,
                                     write=True) == 0


def test_secure_pager_only_covers_confined_regions(system):
    sandbox, vma = make(system, secure=True)
    with pytest.raises(SegmentationFault):
        system.kernel.touch_pages(sandbox.task, 0x3800_0000, PAGE_SIZE)


def test_secure_pager_respects_protection(system):
    """A write fault on read-only confined memory is a real violation."""
    sandbox = system.monitor.create_sandbox("ro", confined_budget=8 * MIB)
    vma = sandbox.declare_confined(256 * 1024, prefault=False,
                                   secure_paging=True)
    from repro.kernel.process import PROT_READ
    vma.prot = PROT_READ
    sandbox.install_input(b"x")
    with pytest.raises(SegmentationFault):
        system.kernel.touch_pages(sandbox.task, vma.start, PAGE_SIZE,
                                  write=True)


def test_secure_paging_skips_init_prefault_cost(system):
    clock = system.machine.clock
    before = clock.cycles
    sb1 = system.monitor.create_sandbox("eager", confined_budget=8 * MIB)
    sb1.declare_confined(1 * MIB)
    eager = clock.cycles - before
    before = clock.cycles
    sb2 = system.monitor.create_sandbox("lazy", confined_budget=8 * MIB)
    sb2.declare_confined(1 * MIB, secure_paging=True)
    lazy = clock.cycles - before
    assert lazy < eager / 3

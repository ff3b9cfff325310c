"""Unit tests for the guest kernel: tasks, paging, timer, syscalls."""

import pytest

from repro.hw.cycles import Cost
from repro.hw.memory import PAGE_SIZE
from repro.kernel import (
    PROT_READ,
    PROT_WRITE,
    TIMESLICE_TICKS,
    SegmentationFault,
)
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def machine():
    return CvmMachine(MachineConfig(memory_bytes=256 * MIB))


@pytest.fixture
def kernel(machine):
    return machine.boot_native_kernel()


def test_boot_configures_protections(kernel, machine):
    from repro.hw import regs
    assert machine.cpu.crs[4] & regs.CR4_SMEP
    assert machine.cpu.crs[4] & regs.CR4_SMAP
    assert machine.cpu.msrs[regs.IA32_LSTAR] != 0
    assert machine.cpu.idt is not None


def test_spawn_creates_isolated_address_spaces(kernel):
    a, b = kernel.spawn("a"), kernel.spawn("b")
    assert a.pid != b.pid
    assert a.aspace is not b.aspace


def test_demand_paging_on_touch(kernel):
    task = kernel.spawn("t")
    vma = kernel.mmap(task, 8 * PAGE_SIZE, PROT_READ | PROT_WRITE)
    faults = kernel.touch_pages(task, vma.start, 8 * PAGE_SIZE, write=True)
    assert faults == 8
    # second touch is fault-free
    assert kernel.touch_pages(task, vma.start, 8 * PAGE_SIZE, write=True) == 0
    assert kernel.clock.events["page_fault"] == 8


def test_fault_outside_vma_segfaults(kernel):
    task = kernel.spawn("t")
    with pytest.raises(SegmentationFault):
        kernel.touch_pages(task, 0x5000_0000, PAGE_SIZE)


def test_write_fault_on_readonly_vma_segfaults(kernel):
    task = kernel.spawn("t")
    vma = kernel.mmap(task, PAGE_SIZE, PROT_READ)
    with pytest.raises(SegmentationFault):
        kernel.touch_pages(task, vma.start, PAGE_SIZE, write=True)
    # reads are fine
    kernel.touch_pages(task, vma.start, PAGE_SIZE)


def test_brk_grows_heap(kernel):
    task = kernel.spawn("t")
    old = task.brk
    new = kernel.syscall(task, "brk", old + 4 * PAGE_SIZE)
    assert new == old + 4 * PAGE_SIZE
    assert kernel.touch_pages(task, old, 4 * PAGE_SIZE, write=True) == 4


def test_munmap_clears_mappings(kernel):
    task = kernel.spawn("t")
    vma = kernel.mmap(task, 2 * PAGE_SIZE, PROT_READ | PROT_WRITE)
    kernel.touch_pages(task, vma.start, 2 * PAGE_SIZE, write=True)
    kernel.munmap(task, vma)
    with pytest.raises(SegmentationFault):
        kernel.touch_pages(task, vma.start, PAGE_SIZE)


def test_timer_ticks_fire_with_compute(kernel):
    kernel.spawn("t")
    before = kernel.clock.events["timer_interrupt"]
    kernel.advance(kernel.tick_period * 5)
    assert kernel.clock.events["timer_interrupt"] - before == 5


def test_timer_tick_raises_ve_for_apic_reprogram(kernel):
    kernel.spawn("t")
    before = kernel.clock.events["ve"]
    kernel.advance(kernel.tick_period * 3)
    assert kernel.clock.events["ve"] - before == 3


def test_scheduler_rotates_between_runnable_tasks(kernel):
    a, b = kernel.spawn("a"), kernel.spawn("b")
    assert kernel.current is a
    # enough ticks to exceed the timeslice
    kernel.advance(kernel.tick_period * TIMESLICE_TICKS)
    assert kernel.current is b
    assert kernel.clock.events["context_switch"] >= 1


def test_exit_task_removes_from_runqueue(kernel):
    a, b = kernel.spawn("a"), kernel.spawn("b")
    kernel.syscall(a, "exit", 7)
    assert a.state == "dead" and a.exit_code == 7
    assert kernel.current is b


def test_file_syscalls_roundtrip(kernel):
    task = kernel.spawn("t")
    fd = kernel.syscall(task, "open", "/tmp/x", create=True, write=True)
    assert kernel.syscall(task, "write", fd, b"hello world") == 11
    kernel.syscall(task, "close", fd)
    fd2 = kernel.syscall(task, "open", "/tmp/x")
    assert kernel.syscall(task, "read", fd2, 5) == b"hello"
    assert kernel.syscall(task, "read", fd2, 100) == b" world"
    assert kernel.syscall(task, "stat", "/tmp/x")["size"] == 11


def test_synthetic_files_read_without_storage(kernel):
    kernel.vfs.create("/data/big.bin", synthetic_size=16 * MIB)
    task = kernel.spawn("t")
    fd = kernel.syscall(task, "open", "/data/big.bin")
    chunk = kernel.syscall(task, "read", fd, 4096)
    assert len(chunk) == 4096
    assert kernel.syscall(task, "stat", "/data/big.bin")["size"] == 16 * MIB


def test_syscall_charges_transition_cost(kernel):
    task = kernel.spawn("t")
    before = kernel.clock.cycles
    kernel.syscall(task, "getpid")
    assert kernel.clock.cycles - before >= Cost.SYSCALL_ROUND_TRIP


def test_unknown_syscall_rejected(kernel):
    task = kernel.spawn("t")
    with pytest.raises(ValueError):
        kernel.syscall(task, "bogus")


def test_loopback_sockets(kernel):
    server, client = kernel.spawn("server"), kernel.spawn("client")
    sfd = kernel.syscall(server, "socket")
    kernel.syscall(server, "listen", sfd, 80)
    cfd = kernel.syscall(client, "socket")
    kernel.syscall(client, "connect", cfd, 80)
    conn_fd = kernel.syscall(server, "accept", sfd)
    kernel.syscall(client, "send", cfd, b"ping")
    assert kernel.syscall(server, "recv", conn_fd) == b"ping"


def test_clone_shares_sandbox_identity(kernel):
    task = kernel.spawn("parent")
    child = kernel.syscall(task, "clone")
    assert child.pid != task.pid
    assert child.kind == task.kind


def test_external_send_costs_ve_and_is_host_visible(kernel, machine):
    kernel.spawn("proxy")
    before_ve = kernel.clock.events["ve"]
    kernel.net.external_send(b"ciphertext-blob")
    assert kernel.clock.events["ve"] > before_ve
    assert b"ciphertext-blob" in machine.vmm.observed_blob()

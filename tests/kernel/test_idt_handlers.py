"""The kernel's IDT handlers, reached through the CPU's own delivery.

``GuestKernel.boot`` installs a macro handler for the timer, page-fault
and #VE vectors. A user program in an unlocked sandbox reaches each of
them: a store to an untouched page of a fresh VMA faults and, with
``deliver_faults``, is resolved by ``handle_page_fault`` and retried;
``int`` raises the timer and #VE vectors in software.
"""

import pytest

from repro.core import erebor_boot
from repro.hw.isa import I
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PTE_P
from repro.kernel import TIMER_VECTOR, VE_VECTOR
from repro.kernel.process import PROT_READ, PROT_WRITE
from repro.libos import LibOs, Manifest
from repro.libos.loader import build_user_program, load_program, run_program
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def rig():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    system = erebor_boot(machine, cma_bytes=64 * MIB)
    libos = LibOs.boot_sandboxed(
        system, Manifest(name="idt", heap_bytes=1 * MIB),
        confined_budget=8 * MIB)
    assert not libos.sandbox.locked
    return machine, system, libos


def load(libos, instrs):
    """Load ``instrs``, then the ``hlt`` exit trap."""
    return load_program(libos, build_user_program(instrs + [I("hlt")],
                                                  data=b"\x00" * 8))


def run(libos, program):
    """Run ``program`` with faults delivered through the IDT; returns the
    retired count."""
    return run_program(libos, program, deliver_faults=True)


def raw_events(clock, key):
    """Occurrences of one labelled event over every lane."""
    return sum(ledger.get(key, 0) for ledger in clock.events_by_cpu.values())


def test_page_fault_vector_resolves_the_fault_and_retries(rig):
    machine, system, libos = rig
    kernel = system.kernel
    task = libos.sandbox.task
    vma = kernel.mmap(task, 4 * PAGE_SIZE, PROT_READ | PROT_WRITE)
    target = vma.start + 2 * PAGE_SIZE
    assert not task.aspace.get_pte(target) & PTE_P
    program = load(libos, [
        I("movi", "rbx", imm=target),
        I("movi", "rax", imm=0x4242),
        I("store", "rbx", "rax"),
    ])
    calls = []
    handle = kernel.handle_page_fault
    kernel.handle_page_fault = lambda *args: calls.append(args) or handle(
        *args)
    logged = len(kernel.fault_log)
    faults = machine.clock.events["page_fault"]
    retired = run(libos, program)
    # the faulting store counts as a step, then retires on the retry
    assert retired == 5
    assert calls == [(task, target, True)]
    assert list(kernel.fault_log)[logged:] == [(task.pid, target, True)]
    assert machine.clock.events["page_fault"] == faults + 1
    assert task.aspace.get_pte(target) & PTE_P
    fn = task.aspace.mapped_frame(target)
    assert machine.phys.read(fn * PAGE_SIZE, 8) == (0x4242).to_bytes(8,
                                                                     "little")


def test_timer_vector_runs_one_tick(rig):
    machine, system, libos = rig
    clock = machine.clock
    program = load(libos, [I("int", imm=TIMER_VECTOR)])
    ticks = clock.events["timer_interrupt"]
    wrmsrs = raw_events(clock, ("ve", "wrmsr"))
    assert run(libos, program) == 2
    assert clock.events["timer_interrupt"] == ticks + 1
    # the tick reprograms the APIC timer: one host-emulated wrmsr
    assert raw_events(clock, ("ve", "wrmsr")) == wrmsrs + 1


def test_ve_vector_books_a_ve_without_a_reason(rig):
    machine, system, libos = rig
    clock = machine.clock
    sandbox_id = libos.sandbox.sandbox_id
    program = load(libos, [I("int", imm=VE_VECTOR)])
    unknown = raw_events(clock, ("ve", "unknown"))
    exits = raw_events(clock, ("sandbox_exit", "ve", sandbox_id))
    assert run(libos, program) == 2
    assert raw_events(clock, ("ve", "unknown")) == unknown + 1
    # the monitor interposes the exit; an unlocked sandbox survives it
    assert (raw_events(clock, ("sandbox_exit", "ve", sandbox_id))
            == exits + 1)
    assert not libos.sandbox.dead

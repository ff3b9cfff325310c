"""Program loader tests: real code running inside the sandbox boundary."""

from contextlib import nullcontext

import pytest

from repro.core import PolicyViolation, erebor_boot
from repro.hw import regs
from repro.hw.errors import GeneralProtectionFault, PageFault
from repro.hw.isa import I
from repro.hw.memory import PAGE_SIZE
from repro.libos import LibOs, Manifest
from repro.libos.loader import (
    LoaderError,
    PROG_CODE_VA,
    PROG_DATA_VA,
    build_user_program,
    load_program,
    run_program,
)
from repro.vm import CvmMachine, MachineConfig, MIB
from tests.reference import reference_paths

RESULT_VA = PROG_DATA_VA  # programs write their result at .data start


@pytest.fixture
def rig():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    system = erebor_boot(machine, cma_bytes=64 * MIB)
    libos = LibOs.boot_sandboxed(system, Manifest(name="prog", heap_bytes=1 * MIB),
                                 confined_budget=8 * MIB)
    return machine, system, libos


def hello_program():
    """Writes 0x4141414141414141 ('AAAAAAAA') to its data section."""
    return build_user_program([
        I("movi", "rbx", imm=RESULT_VA),
        I("movi", "rax", imm=0x4141414141414141),
        I("store", "rbx", "rax"),
        I("hlt"),                   # exit trap
    ], data=b"\x00" * 64)


def test_load_places_sections_in_confined_memory(rig):
    machine, system, libos = rig
    program = load_program(libos, hello_program())
    assert program.sections[".text"] == PROG_CODE_VA
    fn = libos.sandbox.task.aspace.mapped_frame(PROG_CODE_VA)
    assert machine.phys.frame(fn).owner == f"sandbox:{libos.sandbox.sandbox_id}"
    # code frames obey the single-mapping confined policy
    from repro.hw.paging import PTE_NX, PTE_P, PTE_U, make_pte
    with pytest.raises(PolicyViolation):
        system.monitor.ops.write_pte(system.kernel.kernel_aspace,
                                     0x51_0000_0000,
                                     make_pte(fn, PTE_P | PTE_NX))


def test_program_executes_and_writes_result(rig):
    machine, system, libos = rig
    program = load_program(libos, hello_program())
    run_program(libos, program)
    fn = libos.sandbox.task.aspace.mapped_frame(RESULT_VA)
    assert machine.phys.read(fn * PAGE_SIZE, 8) == b"A" * 8


def test_run_program_returns_the_retired_count_on_both_paths():
    """The clean ``hlt`` exit returns the hand count, on the host fast
    paths and under ``reference_paths()``."""
    words = 3
    counter = build_user_program([
        I("movi", "rcx", imm=words),        # 1
        I("movi", "rbx", imm=RESULT_VA),    # 1
        I("store", "rbx", "rcx"),           # loop: 3 per pass
        I("addi", "rcx", imm=(1 << 64) - 1),
        I("jnz", imm=PROG_CODE_VA + 2 * 12),
        I("hlt"),                           # 1: the exit trap counts
    ], data=b"\x00" * 64)
    counts, sb_exec = [], []
    for arm in (reference_paths, nullcontext):
        with arm():
            machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
            system = erebor_boot(machine, cma_bytes=64 * MIB)
            libos = LibOs.boot_sandboxed(
                system, Manifest(name="count", heap_bytes=1 * MIB),
                confined_budget=8 * MIB)
            counts.append(run_program(libos, load_program(libos, counter),
                                      max_steps=1_000))
        sb_exec.append(machine.cpu.tcache.sb_exec)
    assert counts == [2 + 3 * words + 1] * 2
    # the reference arm retired every instruction through Cpu.step
    assert sb_exec[0] == 0 < sb_exec[1]


def test_program_cannot_write_its_own_code(rig):
    """W^X inside the sandbox: text is execute-only."""
    machine, system, libos = rig
    evil = build_user_program([
        I("movi", "rbx", imm=PROG_CODE_VA),
        I("movi", "rax", imm=0x1234),
        I("store", "rbx", "rax"),
        I("hlt"),
    ], data=b"\x00" * 8)
    program = load_program(libos, evil)
    with pytest.raises(PageFault):
        run_program(libos, program)


def test_program_cannot_execute_its_data(rig):
    machine, system, libos = rig
    trampoline = build_user_program([
        I("movi", "rax", imm=PROG_DATA_VA),
        I("ijmp", "rax"),            # jump into NX data
    ], data=I("hlt").encode())
    program = load_program(libos, trampoline)
    with pytest.raises(PageFault):
        run_program(libos, program)


def test_program_cannot_touch_memory_outside_its_vmas(rig):
    machine, system, libos = rig
    prying = build_user_program([
        I("movi", "rbx", imm=0x3000_0000),   # unmapped
        I("load", "rax", "rbx"),
        I("hlt"),
    ], data=b"\x00" * 8)
    program = load_program(libos, prying)
    with pytest.raises(PageFault):
        run_program(libos, program)


def test_program_senduipi_gps_when_uintr_disabled(rig):
    machine, system, libos = rig
    covert = build_user_program([
        I("movi", "rax", imm=1),
        I("senduipi", "rax"),
        I("hlt"),
    ], data=b"\x00" * 8)
    program = load_program(libos, covert)
    libos.sandbox.install_input(b"secret")   # locks; UINTR_TT cleared
    assert machine.cpu.msrs[regs.IA32_UINTR_TT] == 0
    with pytest.raises(GeneralProtectionFault) as exc:
        run_program(libos, program)
    assert "user-interrupt" in str(exc.value)


def test_program_tdcall_gps_from_user_mode(rig):
    machine, system, libos = rig
    hypercaller = build_user_program([I("tdcall"), I("hlt")],
                                     data=b"\x00" * 8)
    program = load_program(libos, hypercaller)
    with pytest.raises(GeneralProtectionFault):
        run_program(libos, program)


def test_loading_after_lock_rejected(rig):
    machine, system, libos = rig
    libos.sandbox.install_input(b"data")
    with pytest.raises(LoaderError):
        load_program(libos, hello_program())


def test_loading_requires_sandbox():
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    kernel = machine.boot_native_kernel()
    libos = LibOs.boot_plain(kernel, Manifest(name="p", heap_bytes=1 * MIB))
    with pytest.raises(LoaderError):
        load_program(libos, hello_program())


def test_kernel_cannot_read_program_memory_smap(rig):
    """Even loaded code is sandbox-private against the kernel."""
    from repro.hw.mmu import AccessContext, KERNEL_MODE
    machine, system, libos = rig
    program = load_program(libos, hello_program())
    ctx = AccessContext(mode=KERNEL_MODE, cr0=machine.cpu.crs[0],
                        cr4=machine.cpu.crs[4])
    with pytest.raises(PageFault):
        machine.cpu.mmu.check(libos.sandbox.task.aspace, PROG_CODE_VA,
                              "read", ctx)

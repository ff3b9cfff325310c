"""Program loader: SELF images into confined memory, runnable on the CPU.

The service provider ships its program as a SELF image (the same format
the kernel uses). The LibOS loader places executable sections in
*confined* frames mapped execute-only and data sections in confined
read-write memory — the paper's §6.1 memory-typing applied to program
text — and the program can then genuinely execute, instruction by
instruction, in user mode inside the sandbox's address space, subject to
every hardware check (SMAP keeps the kernel out, missing UINTR tables
#GP ``senduipi``, W^X blocks self-modification).

This is the micro-level complement to the macro workloads: small enough
programs run *for real*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hw.isa import Instr, assemble
from ..hw.memory import PAGE_SIZE, pages_for
from ..hw.mmu import USER_MODE
from ..kernel.image import SEC_EXEC, SEC_WRITE, Section, SelfImage
from ..kernel.process import PROT_EXEC, PROT_READ, PROT_WRITE, PinnedBacking

if TYPE_CHECKING:
    from .libos import LibOs

#: default layout for loaded sandbox programs
PROG_CODE_VA = 0x0100_0000
PROG_DATA_VA = 0x0200_0000
PROG_STACK_TOP = 0x02F0_0000
PROG_STACK_PAGES = 4


class LoaderError(Exception):
    """Malformed image or layout conflict."""


@dataclass
class LoadedProgram:
    """A program resident in confined memory, ready to run."""

    image_name: str
    entry: int
    stack_top: int
    sections: dict[str, int]   # name -> va


def build_user_program(instrs: list[Instr], *, name: str = "prog",
                       data: bytes = b"") -> SelfImage:
    """Package a user program from ISA instructions (test/demo helper)."""
    sections = [Section(".text", PROG_CODE_VA, assemble(instrs), SEC_EXEC)]
    if data:
        sections.append(Section(".data", PROG_DATA_VA, data, SEC_WRITE))
    return SelfImage(name, PROG_CODE_VA, sections)


def load_program(libos: "LibOs", image: SelfImage) -> LoadedProgram:
    """Map a SELF image into the sandbox's confined memory.

    Code sections become execute-only user mappings (W^X); writable
    sections and the stack become no-execute read-write mappings. All
    frames come from the monitor's confined pool and obey the
    single-mapping policy.
    """
    sandbox = libos.sandbox
    if sandbox is None:
        raise LoaderError("program loading requires a sandboxed LibOS")
    if sandbox.locked:
        raise LoaderError("programs must load before client data arrives")
    kernel = libos.kernel
    monitor = sandbox.monitor
    sections: dict[str, int] = {}

    for section in image.sections:
        pages = max(pages_for(len(section.data)), 1)
        frames = monitor.take_cma_frames(pages,
                                         f"sandbox:{sandbox.sandbox_id}")
        monitor.vmmu.declare_confined(sandbox.sandbox_id, frames)
        sandbox.confined_frames.extend(frames)
        sandbox.confined_bytes += pages * PAGE_SIZE
        # place the bytes before mapping (loader-privileged write)
        offset = 0
        for fn in frames:
            chunk = section.data[offset:offset + PAGE_SIZE]
            if chunk:
                monitor.phys.write(fn << 12, chunk)
            offset += PAGE_SIZE
        if section.executable:
            prot = PROT_READ | PROT_EXEC
        elif section.writable:
            prot = PROT_READ | PROT_WRITE
        else:
            prot = PROT_READ
        vma = kernel.mmap(sandbox.task, pages * PAGE_SIZE, prot,
                          backing=PinnedBacking(frames), kind="confined",
                          fixed_va=section.va)
        sandbox.confined_vmas.append(vma)
        kernel.touch_pages(sandbox.task, vma.start, pages * PAGE_SIZE)
        sections[section.name] = section.va

    # the stack (shared by all programs loaded into this sandbox)
    existing_stack = sandbox.task.find_vma(PROG_STACK_TOP - PAGE_SIZE)
    if existing_stack is not None:
        return LoadedProgram(image.name, image.entry, PROG_STACK_TOP - 64,
                             sections)
    stack_pages = PROG_STACK_PAGES
    frames = monitor.take_cma_frames(stack_pages,
                                     f"sandbox:{sandbox.sandbox_id}")
    monitor.vmmu.declare_confined(sandbox.sandbox_id, frames)
    sandbox.confined_frames.extend(frames)
    sandbox.confined_bytes += stack_pages * PAGE_SIZE
    stack_vma = kernel.mmap(sandbox.task, stack_pages * PAGE_SIZE,
                            PROT_READ | PROT_WRITE,
                            backing=PinnedBacking(frames), kind="confined",
                            fixed_va=PROG_STACK_TOP - stack_pages * PAGE_SIZE)
    sandbox.confined_vmas.append(stack_vma)
    kernel.touch_pages(sandbox.task, stack_vma.start,
                       stack_pages * PAGE_SIZE, write=True)
    return LoadedProgram(image.name, image.entry, PROG_STACK_TOP - 64,
                         sections)


def run_program(libos: "LibOs", program: LoadedProgram, *,
                max_steps: int = 50_000, deliver_faults: bool = False,
                args: dict[str, int] | None = None) -> int:
    """Execute a loaded program in user mode on the simulated CPU.

    The CPU switches to the sandbox's address space (CR3) and runs with
    the machine's armed protections. Returns the number of retired
    instructions; hardware faults propagate to the caller unless
    ``deliver_faults`` routes them through the IDT.

    Exit convention: with syscalls banned in a locked sandbox, a loaded
    program signals completion by executing ``hlt`` — a privileged
    instruction that #GPs from user mode; the runner treats exactly that
    trap as a clean exit (Gramine would intercept an exit syscall; our
    LibOS intercepts the trap).
    """
    from ..core.policy import SandboxViolation
    from ..hw.errors import DivideError, GeneralProtectionFault, InvalidOpcode
    kernel = libos.kernel
    cpu = kernel.cpu
    sandbox = libos.sandbox
    task = sandbox.task
    kernel.current = task
    saved = (cpu.crs[3], cpu.mode, cpu.rip, dict(cpu.regs))
    try:
        cpu.crs[3] = task.aspace.root_fn
        cpu.mode = USER_MODE
        cpu.rip = program.entry
        cpu.regs["rsp"] = program.stack_top
        for reg, value in (args or {}).items():
            cpu.regs[reg] = value
        try:
            return cpu.run(max_steps, deliver_faults=deliver_faults)
        except GeneralProtectionFault as exc:
            if "hlt" in exc.description:
                return max_steps  # clean exit trap
            raise
        except (DivideError, InvalidOpcode) as exc:
            # software exceptions are software-controlled exits (C8):
            # once client data is loaded, they kill the sandbox
            if sandbox.locked:
                sandbox.kill(f"software exception: {exc}")
                raise SandboxViolation(sandbox.sandbox_id,
                                       f"software exception while locked")
            raise
    finally:
        cpu.crs[3], cpu.mode, cpu.rip, regs_saved = saved
        cpu.regs.update(regs_saved)

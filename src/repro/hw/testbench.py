"""Micro-machine builder: a minimal bootable core for gate and attack code.

Security tests, the calibration benchmarks, and the attack demos all need
the same scaffolding — a physical memory, one core, an address space with
code/data/stack regions, and a way to load ISA programs. This module keeps
that in one place so tests read as scenarios, not plumbing.
"""

from __future__ import annotations

from . import regs
from .cpu import Cpu, CpuEnv, Idt
from .cycles import CycleClock
from .isa import Instr, assemble
from .memory import PAGE_SIZE, PhysicalMemory, pages_for
from .mmu import KERNEL_MODE, USER_MODE
from .paging import PTE_NX, PTE_P, PTE_U, PTE_W, AddressSpace

# Default layout for micro programs
USER_CODE_VA = 0x0040_0000
USER_DATA_VA = 0x0080_0000
USER_STACK_TOP = 0x00F0_0000
KERNEL_CODE_VA = 0x60_0000_0000
KERNEL_DATA_VA = 0x60_4000_0000
KERNEL_STACK_TOP = 0x60_8000_0000
MONITOR_CODE_VA = 0x70_0000_0000
IDT_VA = 0x60_A000_0000
#: dedicated interrupt (IST) stack, disjoint from task kernel stacks so
#: gate register spills can never clobber an interrupted stack frame
IST_STACK_TOP = 0x60_B000_0000


class MicroMachine:
    """One core + one address space with conventional regions."""

    def __init__(self, phys_bytes: int = 64 * 1024 * 1024, *, tdx=None, uintr=None):
        self.phys = PhysicalMemory(phys_bytes)
        self.clock = CycleClock()
        self.env = CpuEnv(tdx=tdx, uintr=uintr)
        self.cpu = Cpu(0, self.phys, self.clock, self.env)
        self.aspace = AddressSpace(self.phys, "micro")
        self.env.aspace_by_root[self.aspace.root_fn] = self.aspace
        self.cpu.crs[3] = self.aspace.root_fn
        # default protections on: SMEP, SMAP, PKS
        self.cpu.crs[4] |= regs.CR4_SMEP | regs.CR4_SMAP | regs.CR4_PKS
        self._map_region(KERNEL_STACK_TOP - 4 * PAGE_SIZE, 4, PTE_P | PTE_W, "kernel")
        self._map_region(USER_STACK_TOP - 4 * PAGE_SIZE, 4, PTE_P | PTE_W | PTE_U, "user")
        self.cpu.regs["rsp"] = KERNEL_STACK_TOP - 64

    # ------------------------------------------------------------------ #

    def _map_region(self, va: int, pages: int, flags: int, owner: str,
                    pkey: int = 0) -> None:
        for i in range(pages):
            fn = self.phys.alloc_frame(owner)
            self.phys.frame(fn).materialize()
            self.aspace.map_page(va + i * PAGE_SIZE, fn, flags, pkey)

    def load_code(self, va: int, program: list[Instr] | bytes, *,
                  user: bool = False, owner: str | None = None, pkey: int = 0) -> int:
        """Assemble (if needed) and map ``program`` at ``va``; returns its size."""
        blob = program if isinstance(program, bytes) else assemble(program)
        flags = PTE_P | (PTE_U if user else 0)
        self._map_region(va, max(pages_for(len(blob)), 1), flags,
                         owner or ("user" if user else "kernel"), pkey)
        self.write_phys(va, blob)
        return len(blob)

    def map_data(self, va: int, pages: int = 1, *, user: bool = False,
                 writable: bool = True, pkey: int = 0, owner: str | None = None) -> None:
        flags = PTE_P | PTE_NX | (PTE_W if writable else 0) | (PTE_U if user else 0)
        self._map_region(va, pages, flags, owner or ("user" if user else "kernel"), pkey)

    def write_phys(self, va: int, data: bytes) -> None:
        """Write through the translation without permission checks (loader)."""
        off = 0
        while off < len(data):
            hit = self.aspace.translate(va + off)
            if hit is None:
                raise RuntimeError(f"loader: {va + off:#x} unmapped")
            pa, _ = hit
            chunk = min(len(data) - off, PAGE_SIZE - (pa & (PAGE_SIZE - 1)))
            self.phys.write(pa, data[off:off + chunk])
            off += chunk

    def install_idt(self, vectors: dict[int, int] | None = None,
                    py_handlers: dict[int, object] | None = None) -> Idt:
        """Create and immediately activate an IDT (bypassing lidt).

        Interrupts run on a dedicated IST stack (mapped here), mirroring
        x86-64 IST semantics: delivery never pushes onto the interrupted
        context's stack.
        """
        if self.aspace.translate(IST_STACK_TOP - PAGE_SIZE) is None:
            self._map_region(IST_STACK_TOP - 4 * PAGE_SIZE, 4,
                             PTE_P | PTE_W, "kernel")
        idt = Idt(IDT_VA, kernel_stack_top=IST_STACK_TOP - 8)
        for vector, handler_va in (vectors or {}).items():
            idt.set_vector(vector, handler_va)
        for vector, fn in (py_handlers or {}).items():
            idt.set_vector(vector, 0, py_handler=fn)
        self.env.idt_tables[IDT_VA] = idt
        self.cpu.idt = idt
        return idt

    def run_user(self, code_va: int = USER_CODE_VA, max_steps: int = 10_000,
                 deliver_faults: bool = False) -> int:
        self.cpu.mode = USER_MODE
        self.cpu.rip = code_va
        self.cpu.regs["rsp"] = USER_STACK_TOP - 64
        return self.cpu.run(max_steps, deliver_faults=deliver_faults)

    def run_kernel(self, code_va: int = KERNEL_CODE_VA, max_steps: int = 10_000,
                   deliver_faults: bool = False) -> int:
        self.cpu.mode = KERNEL_MODE
        self.cpu.rip = code_va
        return self.cpu.run(max_steps, deliver_faults=deliver_faults)

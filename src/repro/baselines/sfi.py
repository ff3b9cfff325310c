"""Software-fault-isolation baseline (Ryoan [60] / Chancel [41] style).

The enclave-era data sandboxes confine *userspace* code with NaCl-style
SFI: every memory access is rewritten to ``base | (addr & mask)`` so the
program physically cannot address anything outside its region, and a
static verifier checks the rewrite before loading. The cost is paid on
every single load/store of the data-processing hot path — which is the
paper's §12 argument for Erebor: hardware-enforced sandbox boundaries
keep userspace code untouched.

This module implements that baseline for the simulated ISA so the
comparison is *measured on executed instructions*:

* :func:`sfi_instrument` — rewrite a program's memory accesses through a
  reserved register triple (r13 scratch, r14 mask, r15 base);
* :func:`sfi_verify` — the load-time checker: every load/store must go
  through the masked scratch register, no raw accesses, no syscalls;
* :func:`sfi_overhead` — run the same computation raw vs instrumented
  and report the userspace slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.errors import HardwareFault, SimulatorError
from ..hw.isa import I, Instr, assemble, disassemble

#: registers reserved by the SFI ABI (programs must not use them)
SFI_SCRATCH = "r13"
SFI_MASK = "r14"
SFI_BASE = "r15"

#: instructions an SFI verifier refuses outright (control/exit surface)
SFI_FORBIDDEN = frozenset({"syscall", "senduipi", "int", "tdcall",
                           "wrmsr", "mov_cr", "stac", "lidt", "ijmp",
                           "icall"})


class SfiVerifyError(Exception):
    """The program is not a valid SFI module."""


@dataclass
class SfiRegion:
    """The sandbox's one addressable window: [base, base+size)."""

    base: int
    size: int

    def __post_init__(self):
        if self.size & (self.size - 1):
            raise ValueError("SFI region size must be a power of two")
        if self.base % self.size:
            raise ValueError("SFI region base must be size-aligned")

    @property
    def mask(self) -> int:
        return self.size - 1


def sfi_prelude(region: SfiRegion) -> list[Instr]:
    """Pin the mask/base registers (the loader emits this before entry)."""
    return [
        I("movi", SFI_MASK, imm=region.mask),
        I("movi", SFI_BASE, imm=region.base),
    ]


def _masked_address(reg: str, imm: int) -> list[Instr]:
    """r13 = base | ((reg + imm) & mask) — the NaCl sandboxing sequence."""
    return [
        I("mov", SFI_SCRATCH, reg),
        I("addi", SFI_SCRATCH, imm=imm),
        I("and", SFI_SCRATCH, SFI_MASK),
        I("or", SFI_SCRATCH, SFI_BASE),
    ]


def sfi_instrument(instrs: list[Instr], region: SfiRegion) -> list[Instr]:
    """Rewrite every load/store through the masked scratch register."""
    out = list(sfi_prelude(region))
    for instr in instrs:
        if instr.op in SFI_FORBIDDEN:
            raise SfiVerifyError(
                f"instruction {instr.op!r} is not expressible in an SFI module")
        if instr.op == "load":
            out += _masked_address(instr.src, instr.imm)
            out.append(I("load", instr.dst, SFI_SCRATCH))
        elif instr.op == "store":
            out += _masked_address(instr.dst, instr.imm)
            out.append(I("store", SFI_SCRATCH, instr.src))
        elif instr.op in ("push", "pop"):
            # stack ops implicitly address memory: the stack pointer must
            # itself be confined; re-mask it before every use
            out += _masked_address("rsp", 0)
            out.append(I("mov", "rsp", SFI_SCRATCH))
            out.append(instr)
        else:
            out.append(instr)
    return out


def sfi_verify(blob: bytes) -> int:
    """Load-time verification; returns the number of checked accesses.

    Rules (a simplified NaCl checker):
    1. no forbidden instructions anywhere;
    2. every ``load``/``store`` addresses memory only through r13;
    3. each such access is immediately preceded by the canonical
       4-instruction masking sequence.
    """
    instrs = disassemble(blob)
    checked = 0
    for idx, instr in enumerate(instrs):
        if instr.op in SFI_FORBIDDEN:
            raise SfiVerifyError(f"forbidden instruction {instr.op!r} "
                                 f"at index {idx}")
        if instr.op in ("load", "store"):
            addr_reg = instr.src if instr.op == "load" else instr.dst
            if addr_reg != SFI_SCRATCH or instr.imm != 0:
                raise SfiVerifyError(
                    f"{instr.op} at index {idx} bypasses the mask "
                    f"(addresses via {addr_reg}+{instr.imm})")
            window = instrs[max(idx - 4, 0):idx]
            ops = [w.op for w in window]
            if ops != ["mov", "addi", "and", "or"] or any(
                    w.dst != SFI_SCRATCH for w in window):
                raise SfiVerifyError(
                    f"{instr.op} at index {idx} lacks the masking sequence")
            checked += 1
    return checked


def sfi_overhead(workload: list[Instr],
                 region: SfiRegion) -> tuple[int, int]:
    """Execute ``workload`` raw and SFI-instrumented; returns cycle pair.

    Both runs happen in user mode on the micro CPU with the same four
    data pages of the region mapped; the delta is pure SFI
    instrumentation cost — the userspace tax Erebor's design avoids.
    """
    from ..hw.testbench import MicroMachine, USER_CODE_VA

    data_pages = 4

    def run(instrs: list[Instr]) -> int:
        machine = MicroMachine()
        machine.map_data(region.base, data_pages, user=True)
        machine.load_code(USER_CODE_VA, instrs + [I("int", imm=99)],
                          user=True)
        machine.cpu.mode = "user"
        machine.cpu.rip = USER_CODE_VA
        machine.cpu.regs["rsp"] = region.base + data_pages * 4096 - 64
        before = machine.clock.cycles
        try:
            machine.cpu.run(max_steps=500_000, deliver_faults=False)
        except (HardwareFault, SimulatorError):
            pass   # the final int 99 has no handler: acts as a stop
        return machine.clock.cycles - before

    return run(workload), run(sfi_instrument(workload, region))

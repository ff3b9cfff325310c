"""Micro-level rig: the monitor's gate code running on the simulated CPU.

Builds a machine where the assembled monitor (entry gate → dispatch →
exit gate → handlers) is mapped under the monitor protection key, CET is
armed (IBT + supervisor shadow stack), PKRS carries the kernel rights
profile, and a kernel-side caller stub performs real EMCs via ``icall``.

This is where the paper's Figure 5 actually executes: the Table 3
calibration test and every gate-security test (missed endbr → #CP, gate
mid-entry jump, interrupt-gate PKRS revocation, …) run on this rig.
"""

from __future__ import annotations

from ..hw import cet, regs
from ..hw.cpu import Cpu
from ..hw.isa import I, Instr
from ..hw.memory import PAGE_SIZE
from ..hw.testbench import KERNEL_CODE_VA, MicroMachine
from .emc import ENTRY_GATE_VA, EmcCall, MONITOR_DATA_VA, MONITOR_STACK_TOP
from .gates import (
    PERCPU_STACK_OFFSET,
    PKEY_MONITOR,
    PKRS_KERNEL,
    MonitorLayout,
    build_monitor_code,
    percpu_base,
)

SHADOW_STACK_VA = 0x70_C000_0000
CALLER_VA = KERNEL_CODE_VA
#: per-CPU secure stack spacing inside the monitor stack area
STACK_STRIDE = 8 * PAGE_SIZE


def micro_handler_write_msr() -> list[Instr]:
    """EMC WRITE_MSR service body: rsi=msr, rdx=value."""
    return [
        I("mov", "rcx", "rsi"),
        I("mov", "rax", "rdx"),
        I("wrmsr"),
        I("ret"),
    ]


def micro_handler_write_cr4() -> list[Instr]:
    """EMC WRITE_CR service body (CR4 only at micro level): rdx=value."""
    return [
        I("mov", "rax", "rdx"),
        I("mov_cr", 4, "rax"),
        I("ret"),
    ]


class GateRig:
    """One micro machine with the monitor's gates installed and armed."""

    def __init__(self, handlers: dict[int, list[Instr]] | None = None,
                 *, cet_sst: bool = True, tdx=None,
                 n_cpus: int = 1):
        if handlers is None:
            handlers = {
                int(EmcCall.WRITE_MSR): micro_handler_write_msr(),
                int(EmcCall.WRITE_CR): micro_handler_write_cr4(),
            }
        self.machine = MicroMachine(tdx=tdx)
        self.cpu = self.machine.cpu
        self.clock = self.machine.clock
        self.layout: MonitorLayout = build_monitor_code(handlers)

        # monitor code: supervisor, executable, monitor pkey
        self.machine.load_code(ENTRY_GATE_VA, self.layout.code,
                               owner="monitor", pkey=PKEY_MONITOR)
        # per-CPU monitor data pages + secure stacks
        self.machine.map_data(MONITOR_DATA_VA, n_cpus, owner="monitor",
                              pkey=PKEY_MONITOR)
        stack_pages = 4 + (n_cpus - 1) * (STACK_STRIDE // PAGE_SIZE)
        self.machine.map_data(MONITOR_STACK_TOP - stack_pages * PAGE_SIZE,
                              stack_pages, owner="monitor",
                              pkey=PKEY_MONITOR)

        # secondary cores share physical memory, env and the clock
        self.cpus: list[Cpu] = [self.cpu]
        for cpu_id in range(1, n_cpus):
            extra = Cpu(cpu_id, self.machine.phys, self.clock,
                        self.machine.env)
            extra.crs = dict(self.cpu.crs)
            self.cpus.append(extra)
        if n_cpus > 1:
            # extra kernel stacks below the default one
            extra_pages = (n_cpus - 1) * (STACK_STRIDE // PAGE_SIZE)
            from ..hw.paging import PTE_P, PTE_W
            self.machine._map_region(
                0x60_8000_0000 - (4 + extra_pages) * PAGE_SIZE, extra_pages,
                PTE_P | PTE_W, "kernel")

        for cpu_id, cpu in enumerate(self.cpus):
            stack_top = MONITOR_STACK_TOP - cpu_id * STACK_STRIDE - 64
            self._poke_u64(percpu_base(cpu_id) + PERCPU_STACK_OFFSET,
                           stack_top)
            cpu.msrs[regs.IA32_GS_BASE] = percpu_base(cpu_id)
            # CET: shadow stack + IBT, one stack per logical core
            ssp = cet.allocate_shadow_stack(
                self.machine.phys, self.machine.aspace,
                SHADOW_STACK_VA + cpu_id * 16 * PAGE_SIZE, 4)
            cet.arm_cet(cpu, ssp, shadow_stack=cet_sst)
            # deprivileged kernel rights
            cpu.msrs[regs.IA32_PKRS] = PKRS_KERNEL
            cpu.regs["rsp"] = 0x60_8000_0000 - 64 - cpu_id * STACK_STRIDE

    def _poke_u64(self, va: int, value: int) -> None:
        hit = self.machine.aspace.translate(va)
        assert hit is not None
        self.machine.phys.write_u64(hit[0], value)

    # ------------------------------------------------------------------ #

    def caller_stub(self, call_number: int, rsi: int = 0,
                    rdx: int = 0) -> list[Instr]:
        """Kernel-side EMC invocation (what an instrumented thunk does)."""
        return [
            I("movi", "rdi", imm=call_number),
            I("movi", "rsi", imm=rsi),
            I("movi", "rdx", imm=rdx),
            I("movi", "r8", imm=0),
            I("movi", "rax", imm=ENTRY_GATE_VA),
            I("icall", "rax"),
            I("hlt"),
        ]

    def run_emc(self, call_number: int = int(EmcCall.NOP), *, rsi: int = 0,
                rdx: int = 0, cpu: Cpu | None = None) -> int:
        """Execute one EMC from kernel mode; returns the gate-path cycles.

        The measurement covers exactly the transition: from the ``icall``
        into the entry gate to the exit gate's ``ret`` landing back in the
        caller — the paper's "empty EMC round trip". ``cpu`` selects the
        core (per-CPU stacks/PKRS apply).
        """
        cpu = cpu or self.cpu
        caller_va = CALLER_VA + cpu.cpu_id * 0x10000
        stub = self.caller_stub(call_number, rsi, rdx)
        self.machine.load_code(caller_va, stub)
        cpu.mode = "kernel"
        cpu.rip = caller_va
        # execute the register set-up on the chosen core, then snapshot
        # before the icall; the whole gate path lands on that core's
        # cycle counter (cpu.run scopes itself), so concurrent EMCs on
        # different cores overlap on the wall clock
        with self.clock.on_cpu(cpu.cpu_id):
            for _ in range(5):
                cpu.step()
        before = self.clock.cycles
        with self.clock.tracer.span("gate:micro", "gate",
                                    call=call_number, cpu=cpu.cpu_id):
            cpu.run(max_steps=10_000)
        after = self.clock.cycles
        # the final hlt costs 1 cycle; exclude it
        return after - before - 1

"""Simulated CPU core: registers, MSRs, privilege modes, CET, execution.

The core executes the 12-byte ISA of :mod:`repro.hw.isa` with the full
permission pipeline of :mod:`repro.hw.mmu` on every fetch and data access.
It implements the hardware behaviours Erebor's design leans on:

* sensitive instructions (#GP from user mode; Table 2 of the paper),
* CET indirect-branch tracking — after an indirect ``call``/``jmp`` the
  next instruction *must* be ``endbr`` or a #CP fault fires,
* CET supervisor shadow stack — ``call``/``ret`` and exception delivery
  push/verify return addresses in shadow-stack memory,
* PKS — supervisor data accesses consult ``IA32_PKRS``,
* SMAP/``stac`` — ``EFLAGS.AC`` gates supervisor access to user pages and
  is cleared on every exception/interrupt delivery,
* TDX — ``tdcall`` traps to the attached TDX module; ``cpuid`` and exit-
  triggering MSR writes raise #VE exactly like a TD guest.

Interrupt delivery vectors through the *currently loaded* IDT (installed
with the sensitive ``lidt`` instruction), pushing an interrupt frame and,
when CET is armed, a shadow-stack record verified on ``iret``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import regs
from .cycles import Cost, CycleClock
from .errors import (
    ControlProtectionFault,
    DoubleFault,
    GeneralProtectionFault,
    HardwareFault,
    SimulatorError,
    VirtualizationException,
)
from .isa import INSTR_SIZE, REG_INDEX, Instr, decode_cached
from .memory import PAGE_SIZE, PhysicalMemory
from .mmu import KERNEL_MODE, USER_MODE, AccessContext, Mmu
from .paging import AddressSpace
from .translate import DIRECT_JUMPS, TranslationCache


class CpuHalt(Exception):
    """Raised internally when the core executes ``hlt``."""


@dataclass
class IdtEntry:
    """One interrupt-descriptor entry: where vector N lands."""

    handler_va: int
    #: optional macro-level handler; when set, delivery calls it instead of
    #: redirecting micro execution (the kernel/monitor objects use this).
    py_handler: Callable | None = None


@dataclass
class Idt:
    """An interrupt descriptor table living at ``base_va`` in some space."""

    base_va: int
    kernel_stack_top: int = 0
    entries: dict[int, IdtEntry] = field(default_factory=dict)

    def set_vector(self, vector: int, handler_va: int,
                   py_handler: Callable | None = None) -> None:
        self.entries[vector] = IdtEntry(handler_va, py_handler)


@dataclass
class CpuEnv:
    """Devices and registries a core is wired to."""

    tdx: object | None = None            # TDX module (tdcall target, #VE source)
    uintr: object | None = None          # user-interrupt fabric
    idt_tables: dict[int, Idt] = field(default_factory=dict)   # va -> Idt
    aspace_by_root: dict[int, AddressSpace] = field(default_factory=dict)
    td_exit_msrs: set[int] = field(default_factory=set)        # wrmsr -> #VE
    cpuid_values: tuple[int, int, int, int] = (0x806F8, 0, 0, 0)


MSR_WRITE_COSTS = {
    regs.IA32_PKRS: Cost.WRMSR_PKRS,
}

_OP_COSTS = {
    "nop": 1, "mov": Cost.ALU, "movi": Cost.MOV_IMM,
    "load": Cost.MEM, "store": Cost.MEM, "push": Cost.MEM, "pop": Cost.MEM,
    "add": Cost.ALU, "sub": Cost.ALU, "and": Cost.ALU, "or": Cost.ALU,
    "xor": Cost.ALU, "shl": Cost.ALU, "shr": Cost.ALU, "addi": Cost.ALU,
    "cmp": Cost.ALU, "cmpi": Cost.ALU,
    "jmp": Cost.JMP, "jz": Cost.JMP, "jnz": Cost.JMP,
    "call": Cost.CALL, "icall": Cost.ICALL, "ijmp": Cost.JMP,
    "ret": Cost.RET, "endbr": Cost.ENDBR, "fence": Cost.FENCE,
    "rdmsr": Cost.RDMSR, "rdcr": Cost.ALU,
    "gsload": Cost.MOV_IMM + Cost.MEM, "gsstore": Cost.MOV_IMM + Cost.MEM,
    "clac": Cost.CLAC, "stac": Cost.STAC,
    "mov_cr": Cost.CR_WRITE_NATIVE, "lidt": Cost.LIDT_NATIVE,
    "wrmsr": Cost.ALU, "tdcall": Cost.ALU,  # remainder charged in handlers
    "cpuid": Cost.CPUID_NATIVE, "senduipi": Cost.ALU,
    "syscall": Cost.SYSCALL_ENTRY, "sysret": Cost.SYSRET,
    "iret": Cost.IRET, "int": Cost.ALU, "hlt": 1,
}

U64 = (1 << 64) - 1


class Cpu:
    """One logical core."""

    def __init__(self, cpu_id: int, phys: PhysicalMemory, clock: CycleClock,
                 env: CpuEnv | None = None):
        self.cpu_id = cpu_id
        self.phys = phys
        self.clock = clock
        clock.ensure_cpus(cpu_id + 1)   # each core owns a cycle counter
        self.mmu = Mmu(phys, clock)
        self.env = env or CpuEnv()

        self.regs: dict[str, int] = {r: 0 for r in (
            "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
            "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")}
        self.rip = 0
        self.mode = KERNEL_MODE
        self.zf = False
        self.ac = False
        self.crs: dict[int, int] = {0: regs.CR0_PE | regs.CR0_PG | regs.CR0_WP, 3: 0, 4: 0}
        self.msrs: dict[int, int] = {}
        self.idt: Idt | None = None
        self._ibt_wait = False            # armed after icall/ijmp
        self._halted = False
        self._delivering = False

        # Handler/cost table, precomputed once: step() dispatches through
        # it instead of paying getattr(self, f"_op_{op}") + _OP_COSTS.get
        # per instruction, and the translation cache ends blocks before
        # any op it lacks.
        self._dispatch: dict[str, tuple[Callable, int]] = {
            name[4:]: (getattr(self, name),
                       _OP_COSTS.get(name[4:], Cost.ALU))
            for name in dir(type(self)) if name.startswith("_op_")
        }
        self.tcache = TranslationCache(self)
        #: instructions retired by an aborted burst (see _translated_burst)
        self._burst_retired = 0
        #: instructions retired by the latest :meth:`run`, faulting
        #: attempt included; set on return and when a fault propagates
        self.retired = 0
        #: reusable access contexts (see access_ctx)
        self._ctx = AccessContext()
        self._ss_ctx = AccessContext(shadow_stack_op=True)

    # ------------------------------------------------------------------ #
    # derived state
    # ------------------------------------------------------------------ #

    @property
    def aspace(self) -> AddressSpace:
        # CR3 carries the root page-table frame number in this model
        root = self.crs[3]
        space = self.env.aspace_by_root.get(root)
        if space is None:
            raise SimulatorError(f"CR3 root frame {root:#x} has no address space")
        return space

    def access_ctx(self, *, shadow_stack_op: bool = False) -> AccessContext:
        # Refresh a reusable context instead of allocating one per memory
        # access; every caller hands it straight to the MMU and never
        # retains it, so in-place mutation is unobservable.
        ctx = self._ss_ctx if shadow_stack_op else self._ctx
        ctx.mode = self.mode
        ctx.cr0 = self.crs[0]
        ctx.cr4 = self.crs[4]
        ctx.pkrs = self.msrs.get(regs.IA32_PKRS, 0)
        ctx.ac = self.ac
        return ctx

    @property
    def ibt_enabled(self) -> bool:
        return bool(self.crs[4] & regs.CR4_CET
                    and self.msrs.get(regs.IA32_S_CET, 0) & regs.S_CET_ENDBR_EN)

    @property
    def sst_enabled(self) -> bool:
        return bool(self.crs[4] & regs.CR4_CET
                    and self.msrs.get(regs.IA32_S_CET, 0) & regs.S_CET_SH_STK_EN
                    and self.mode == KERNEL_MODE)

    # ------------------------------------------------------------------ #
    # memory helpers
    # ------------------------------------------------------------------ #

    def _read_u64(self, va: int) -> int:
        return self.mmu.read_u64(self.aspace, va, self.access_ctx())

    def _write_u64(self, va: int, value: int) -> None:
        self.mmu.write_u64(self.aspace, va, value, self.access_ctx())

    def _push(self, value: int) -> None:
        self.regs["rsp"] = (self.regs["rsp"] - 8) & U64
        self._write_u64(self.regs["rsp"], value)

    def _pop(self) -> int:
        value = self._read_u64(self.regs["rsp"])
        self.regs["rsp"] = (self.regs["rsp"] + 8) & U64
        return value

    # shadow stack -------------------------------------------------------

    def _ssp(self) -> int:
        return self.msrs.get(regs.IA32_PL0_SSP, 0)

    def _sst_push(self, value: int) -> None:
        ssp = (self._ssp() - 8) & U64
        self.mmu.write_u64(self.aspace, ssp, value,
                           self.access_ctx(shadow_stack_op=True))
        self.msrs[regs.IA32_PL0_SSP] = ssp

    def _sst_pop(self) -> int:
        ssp = self._ssp()
        value = self.mmu.read_u64(self.aspace, ssp,
                                  self.access_ctx(shadow_stack_op=True))
        self.msrs[regs.IA32_PL0_SSP] = (ssp + 8) & U64
        return value

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def step(self) -> Instr:
        """Fetch, decode and execute one instruction; returns it.

        This is the *oracle*: the translation cache's fast path must be
        observationally identical to a `step` loop (lockstep equivalence
        tests enforce it per instruction).
        """
        blob = self.mmu.fetch(self.aspace, self.rip, INSTR_SIZE, self.access_ctx())
        instr = decode_cached(blob)
        if self._ibt_wait and self.ibt_enabled:
            if instr.op != "endbr":
                self._ibt_wait = False
                raise ControlProtectionFault(
                    f"indirect branch to {self.rip:#x} missing endbr",
                    missing_endbranch=True)
        self._ibt_wait = False
        next_rip = self.rip + INSTR_SIZE
        entry = self._dispatch.get(instr.op)
        if entry is None:
            self.clock.charge(_OP_COSTS.get(instr.op, Cost.ALU), "instr")
            raise SimulatorError(f"unimplemented instruction {instr.op}")
        handler, cost = entry
        self.clock.charge(cost, "instr")
        self.rip = next_rip
        override = handler(instr)
        if override is not None:
            self.rip = override
        return instr

    def _step_counted(self) -> int:
        """One interpreted :meth:`step` inside a translated burst.

        On a halt or any hardware fault the retired count includes the
        attempt, and a fault leaves ``rip`` at the faulting instruction
        for delivery.
        """
        va = self.rip
        self._burst_retired = 0
        try:
            self.step()
        except CpuHalt:
            self._burst_retired = 1
            raise
        except HardwareFault:
            self._burst_retired = 1
            self.rip = va
            raise
        return 1

    def _translated_burst(self, budget: int) -> int:
        """Retire up to ``budget`` instructions through compiled superblocks.

        Equivalent to repeated :meth:`step` by construction:

        * :meth:`TranslationCache.acquire` performs the real fetch check
          for the first block; each block then runs as one compiled
          function (see :func:`_compile_block`) that charges the same
          totals from the same cost table and flushes them before
          anything can observe the clock;
        * a block ending in a direct jump enters its cached successor
          without a new ``acquire`` only when the successor lies on the
          same code page (whose fetch check already ran in this burst
          under the same mode and CR4), its witness is fresh and it fits
          the remaining budget; a loop-form block re-enters itself inside
          its function under the same budget test;
        * the data-access memo ``reads``/``writes`` lives for this burst
          only (see :func:`_memo_entry`);
        * IBT arming, page-straddling fetches, undecodable bytes, stale
          blocks and budget tails drop to `step` itself, byte-for-byte.

        Returns the number of instructions retired. When it raises,
        ``self._burst_retired`` carries the count, a hardware fault's or
        halt's attempt included, and a hardware fault leaves ``rip`` on
        the faulting instruction.
        """
        if self._ibt_wait:
            return self._step_counted()
        va = self.rip
        self._burst_retired = 0
        try:
            sb = self.tcache.acquire(va)
        except HardwareFault:
            self._burst_retired = 1   # the faulting fetch counts as a step
            raise
        if sb is None or budget < len(sb.instrs):
            # budget tail: retire exactly one instruction, interpreted —
            # identical charges, one extra (architecturally idempotent)
            # fetch check
            return self._step_counted()
        tcache = self.tcache
        blocks = tcache.blocks
        root = self.aspace.root_fn
        page = va >> 12
        reads: dict = {}
        writes: dict = {}
        done = 0
        while True:
            n = (sb.fn or _compile_block(sb))(self, sb, reads, writes, done,
                                               budget)
            done += n
            if not sb.chains or n % len(sb.instrs):
                # a partial pass: the block stopped before its end
                return done
            rip = self.rip
            if rip == sb.start_va:
                # a loop back to this block (a loop-form block only comes
                # here at the budget edge): every instruction that could
                # change its witnessed bytes re-validated it, so it is
                # still fresh
                nxt = sb
            elif rip >> 12 != page:
                return done
            else:
                nxt = blocks.get((root, rip))
                if nxt is None or not nxt.fresh():
                    return done
            if len(nxt.instrs) > budget - done:
                return done
            tcache.sb_hits += 1     # a block entry served from the cache
            sb = nxt

    def run(self, max_steps: int = 100_000, *, deliver_faults: bool = True) -> int:
        """Run until ``hlt``; optionally vector faults through the IDT.

        Returns the number of instructions retired. The count is also
        left in :attr:`retired`, so it stays readable when a fault
        propagates; a faulting attempt counts as a step. Everything
        executed here — instructions, MMU walks, exception delivery — is
        charged to *this* core's cycle counter, so concurrent cores
        advance the machine's wall clock independently.
        """
        steps = 0
        self._halted = False
        try:
            with self.clock.on_cpu(self.cpu_id):
                while not self._halted and steps < max_steps:
                    try:
                        steps += self._translated_burst(max_steps - steps)
                    except CpuHalt:
                        self._halted = True
                        steps += self._burst_retired
                    except HardwareFault as fault:
                        steps += self._burst_retired
                        if not deliver_faults:
                            raise
                        # rip already points at the faulting instruction
                        self.deliver(fault.vector, fault=fault)
                    except SimulatorError:
                        steps += self._burst_retired
                        raise
        finally:
            self.retired = steps
        if steps >= max_steps and not self._halted:
            raise SimulatorError(f"run() exceeded {max_steps} steps (livelock?)")
        return steps

    # ------------------------------------------------------------------ #
    # interrupt / exception delivery
    # ------------------------------------------------------------------ #

    def deliver(self, vector: int, fault: HardwareFault | None = None) -> None:
        """Vector an event through the current IDT (hardware semantics)."""
        if self.idt is None:
            raise fault or SimulatorError(f"no IDT installed for vector {vector}")
        entry = self.idt.entries.get(vector)
        if entry is None:
            if self._delivering:
                raise DoubleFault(f"no handler for vector {vector} during delivery")
            raise fault or SimulatorError(f"IDT has no vector {vector}")
        self.clock.charge(Cost.EXC_DELIVERY, "exc_delivery")
        self.clock.count("exception_delivery")
        if entry.py_handler is not None:
            # Macro-level handler: runs as the kernel/monitor object, then
            # execution resumes as if it had iret'ed.
            saved = (self.mode, self.ac)
            self.mode, self.ac = KERNEL_MODE, False
            try:
                entry.py_handler(self, vector, fault)
            finally:
                self.mode, self.ac = saved
            return
        self._delivering = True
        try:
            frame_mode = 1 if self.mode == USER_MODE else 0
            old_rsp = self.regs["rsp"]
            # IST semantics: interrupts always run on the dedicated stack
            # (this is what keeps gate red-zone spills intact — see the
            # interrupt-during-EMC security tests)
            if self.idt.kernel_stack_top:
                self.regs["rsp"] = self.idt.kernel_stack_top
            # CET: indirect-branch tracking is suspended across delivery
            # (the tracker state travels in the saved flags, like the SDM's
            # TRACKER save on exception frames)
            flags = ((1 if self.ac else 0) | (2 if self.zf else 0)
                     | (4 if self._ibt_wait else 0))
            self._ibt_wait = False
            self.mode = KERNEL_MODE
            self.ac = False  # hardware clears EFLAGS.AC on gate transit
            self._push(old_rsp)
            self._push(flags)
            self._push(frame_mode)
            self._push(self.rip)
            if self.sst_enabled:
                self._sst_push(self.rip)
            self.rip = entry.handler_va
        finally:
            self._delivering = False

    # ------------------------------------------------------------------ #
    # instruction semantics
    # ------------------------------------------------------------------ #

    def _require_kernel(self, what: str) -> None:
        if self.mode != KERNEL_MODE:
            raise GeneralProtectionFault(f"{what} from user mode")

    def _op_nop(self, i: Instr):
        return None

    def _op_hlt(self, i: Instr):
        self._require_kernel("hlt")
        raise CpuHalt

    def _op_mov(self, i: Instr):
        self.regs[i.dst] = self.regs[i.src]

    def _op_movi(self, i: Instr):
        self.regs[i.dst] = i.imm & U64

    def _op_load(self, i: Instr):
        self.regs[i.dst] = self._read_u64((self.regs[i.src] + i.imm) & U64)

    def _op_store(self, i: Instr):
        self._write_u64((self.regs[i.dst] + i.imm) & U64, self.regs[i.src])

    def _op_gsload(self, i: Instr):
        base = self.msrs.get(regs.IA32_GS_BASE, 0)
        self.regs[i.dst] = self._read_u64((base + i.imm) & U64)

    def _op_gsstore(self, i: Instr):
        base = self.msrs.get(regs.IA32_GS_BASE, 0)
        self._write_u64((base + i.imm) & U64, self.regs[i.src])

    def _op_push(self, i: Instr):
        self._push(self.regs[i.dst])

    def _op_pop(self, i: Instr):
        self.regs[i.dst] = self._pop()

    def _alu(self, i: Instr, fn):
        self.regs[i.dst] = fn(self.regs[i.dst], self.regs[i.src]) & U64
        self.zf = self.regs[i.dst] == 0

    def _op_add(self, i: Instr):
        self._alu(i, lambda a, b: a + b)

    def _op_sub(self, i: Instr):
        self._alu(i, lambda a, b: a - b)

    def _op_and(self, i: Instr):
        self._alu(i, lambda a, b: a & b)

    def _op_or(self, i: Instr):
        self._alu(i, lambda a, b: a | b)

    def _op_xor(self, i: Instr):
        self._alu(i, lambda a, b: a ^ b)

    def _op_shl(self, i: Instr):
        self._alu(i, lambda a, b: a << (b & 63))

    def _op_shr(self, i: Instr):
        self._alu(i, lambda a, b: a >> (b & 63))

    def _op_mul(self, i: Instr):
        self._alu(i, lambda a, b: a * b)

    def _op_div(self, i: Instr):
        from .errors import DivideError
        divisor = self.regs[i.src]
        if divisor == 0:
            raise DivideError(f"division by zero at {self.rip - INSTR_SIZE:#x}")
        self.regs[i.dst] //= divisor
        self.zf = self.regs[i.dst] == 0

    def _op_addi(self, i: Instr):
        self.regs[i.dst] = (self.regs[i.dst] + i.imm) & U64
        self.zf = self.regs[i.dst] == 0

    def _op_cmp(self, i: Instr):
        self.zf = self.regs[i.dst] == self.regs[i.src]

    def _op_cmpi(self, i: Instr):
        self.zf = self.regs[i.dst] == (i.imm & U64)

    def _op_jmp(self, i: Instr):
        return i.imm

    def _op_jz(self, i: Instr):
        return i.imm if self.zf else None

    def _op_jnz(self, i: Instr):
        return None if self.zf else i.imm

    def _op_call(self, i: Instr):
        self._push(self.rip)
        if self.sst_enabled:
            self._sst_push(self.rip)
        return i.imm

    def _op_icall(self, i: Instr):
        self._push(self.rip)
        if self.sst_enabled:
            self._sst_push(self.rip)
        if self.ibt_enabled:
            self._ibt_wait = True
        return self.regs[i.dst]

    def _op_ijmp(self, i: Instr):
        if self.ibt_enabled:
            self._ibt_wait = True
        return self.regs[i.dst]

    def _op_ret(self, i: Instr):
        target = self._pop()
        if self.sst_enabled:
            expected = self._sst_pop()
            if expected != target:
                raise ControlProtectionFault(
                    f"shadow stack mismatch: ret to {target:#x}, "
                    f"shadow stack holds {expected:#x}",
                    shadow_stack_mismatch=True)
        return target

    def _op_endbr(self, i: Instr):
        return None

    def _op_fence(self, i: Instr):
        return None

    def _op_syscall(self, i: Instr):
        if self.mode != USER_MODE:
            raise GeneralProtectionFault("syscall from kernel mode")
        target = self.msrs.get(regs.IA32_LSTAR, 0)
        if target == 0:
            raise GeneralProtectionFault("syscall with no IA32_LSTAR entry")
        self.regs["rcx"] = self.rip
        self.mode = KERNEL_MODE
        self.ac = False
        self.clock.count("syscall_transition")
        return target

    def _op_sysret(self, i: Instr):
        self._require_kernel("sysret")
        self.mode = USER_MODE
        return self.regs["rcx"]

    def _op_iret(self, i: Instr):
        self._require_kernel("iret")
        rip = self._pop()
        frame_mode = self._pop()
        flags = self._pop()
        rsp = self._pop()
        if self.sst_enabled:
            expected = self._sst_pop()
            if expected != rip:
                raise ControlProtectionFault(
                    f"iret target {rip:#x} disagrees with shadow stack {expected:#x}",
                    shadow_stack_mismatch=True)
        self.mode = USER_MODE if frame_mode else KERNEL_MODE
        self.ac = bool(flags & 1)
        self.zf = bool(flags & 2)
        self._ibt_wait = bool(flags & 4)
        self.regs["rsp"] = rsp
        return rip

    def _op_int(self, i: Instr):
        self.deliver(i.imm & 0xFF)
        return self.rip

    def _op_cpuid(self, i: Instr):
        if self.env.tdx is not None:
            # In a TD guest cpuid is emulated by the host: synchronous exit.
            raise VirtualizationException("cpuid")
        a, b, c, d = self.env.cpuid_values
        self.regs["rax"], self.regs["rbx"] = a, b
        self.regs["rcx"], self.regs["rdx"] = c, d

    def _op_rdmsr(self, i: Instr):
        self._require_kernel("rdmsr")
        self.regs["rax"] = self.msrs.get(self.regs["rcx"], 0)

    def _op_rdcr(self, i: Instr):
        self._require_kernel("rdcr")
        self.regs[i.dst] = self.crs.get(i.imm, 0)

    def _op_clac(self, i: Instr):
        self._require_kernel("clac")
        self.ac = False

    def _op_senduipi(self, i: Instr):
        tt = self.msrs.get(regs.IA32_UINTR_TT, 0)
        if not tt & 1:
            raise GeneralProtectionFault("senduipi with invalid user-interrupt target table")
        if self.env.uintr is None:
            raise GeneralProtectionFault("no user-interrupt fabric")
        self.env.uintr.send(self, self.regs[i.dst])

    # --- sensitive instructions (Table 2) --------------------------------

    def _op_mov_cr(self, i: Instr):
        self._require_kernel("mov to CR")
        value = self.regs[i.src]
        crn = i.dst
        if crn not in (0, 3, 4):
            raise GeneralProtectionFault(f"mov to unsupported CR{crn}")
        self.crs[crn] = value
        self.clock.count("cr_write")

    def _op_wrmsr(self, i: Instr):
        self._require_kernel("wrmsr")
        msr = self.regs["rcx"]
        value = self.regs["rax"]
        if msr in self.env.td_exit_msrs:
            raise VirtualizationException("wrmsr", msr)
        # step() charged the base ALU cost; add the MSR-specific remainder
        extra = MSR_WRITE_COSTS.get(msr, Cost.WRMSR_SLOW_NATIVE) - Cost.ALU
        self.clock.charge(max(extra, 0), "wrmsr")
        self.msrs[msr] = value
        self.clock.count("msr_write")

    def _op_stac(self, i: Instr):
        self._require_kernel("stac")
        self.ac = True

    def _op_lidt(self, i: Instr):
        self._require_kernel("lidt")
        table = self.env.idt_tables.get(self.regs[i.src])
        if table is None:
            raise GeneralProtectionFault(
                f"lidt: no IDT registered at {self.regs[i.src]:#x}")
        self.idt = table
        self.clock.count("lidt")

    def _op_tdcall(self, i: Instr):
        self._require_kernel("tdcall")
        if self.env.tdx is None:
            raise GeneralProtectionFault("tdcall outside a TD guest")
        self.env.tdx.tdcall(self)


# --------------------------------------------------------------------------- #
# compiled superblocks
# --------------------------------------------------------------------------- #
#
# Each superblock runs as one generated Python function,
# ``block(cpu, sb, reads, writes, done, budget) -> retired``, where
# ``done`` is what the burst retired before the call and ``budget`` its
# step limit. Pure ops, ``load`` and ``store`` are inlined with their
# operands and costs as constants; every other op calls its handler
# through the class, so one function serves every core, sandbox and
# machine. The block's ``instr`` and ``mem`` cycles and its
# ``sb_exec``/``sb_cycles`` counts are summed at generation time and
# flushed — ``instr`` before ``mem``, the order in which `Cpu.step`
# first creates the two tags — before every handler that is not
# inlined, before any exception leaves the function, and at every exit.
# Nothing between two flushes can observe the clock: inlined ops read
# only registers, flags and memory, and ``Mmu.check`` never touches the
# clock.
#
# A block that ends in a direct jump back to its own start and inlines
# every instruction (`_self_loop`) takes the loop form: one ``while``
# loop that runs pass after pass while the next pass fits ``budget``,
# with the registers it names and ZF in locals. Its exits flush the
# finished passes' totals plus the running pass's, add the loop-backs to
# ``sb_hits`` (the burst loop would have counted each re-entry) and
# store the locals back; it returns every instruction it retired.

#: ops the block functions inline (everything else calls its handler)
_INLINE_OPS = frozenset({
    "nop", "mov", "movi", "add", "sub", "and", "or", "xor", "shl", "shr",
    "mul", "addi", "cmp", "cmpi", "jmp", "jz", "jnz", "load", "store",
})

#: ``_alu`` expressions, before the final mask
_ALU_EXPRS = {
    "add": "{d} + {s}", "sub": "{d} - {s}", "and": "{d} & {s}",
    "or": "{d} | {s}", "xor": "{d} ^ {s}", "shl": "{d} << ({s} & 63)",
    "shr": "{d} >> ({s} & 63)", "mul": "{d} * {s}",
}

#: register operands each inlined op reads or writes
_REG_FIELDS = {
    "mov": ("dst", "src"), "movi": ("dst",), "addi": ("dst",),
    "cmp": ("dst", "src"), "cmpi": ("dst",), "load": ("dst", "src"),
    "store": ("dst", "src"), **{op: ("dst", "src") for op in _ALU_EXPRS},
}

#: block content ``(start_va, instrs)`` → compiled function, process-wide
_BLOCK_FNS: dict[tuple, Callable] = {}
_BLOCK_FNS_MAX = 4096

#: last page offset at which an 8-byte access stays on one page
_LAST_U64 = PAGE_SIZE - 8

#: a memo entry serves an access only while the walk's three table
#: frames are unmodified and the data frame's shadow-stack flag holds
_MEMO_VALID = ("e[1].version == e[2] and e[3].version == e[4] "
               "and e[5].version == e[6] and e[0].is_shadow_stack == e[7]")


def _inlinable(instr: Instr) -> bool:
    if instr.op not in _INLINE_OPS:
        return False
    # a malformed register operand raises in the handler, after a flush
    return all(getattr(instr, f) in REG_INDEX
               for f in _REG_FIELDS.get(instr.op, ()))


def _flush(cpu: Cpu, instr_cycles: int, mem_cycles: int, retired: int,
           loops: int = 0) -> None:
    """Book a block's accumulated charges and superblock counters;
    ``loops`` counts a loop-form block's loop-backs."""
    if retired:
        charge = cpu.clock.charge
        charge(instr_cycles, "instr")
        if mem_cycles:
            charge(mem_cycles, "mem")
        tcache = cpu.tcache
        tcache.sb_exec += retired
        tcache.sb_cycles += instr_cycles
        tcache.sb_hits += loops


def _unwind(cpu: Cpu, exc: Exception, iva: int, before: int) -> None:
    """Leave a block on an exception from the instruction at ``iva``.

    ``before`` is the burst's count before that instruction, and ``rip``
    already points past it, as in `step`. As in the `step` loop, a
    hardware fault or a halt counts its attempt and a hardware fault
    moves ``rip`` back onto the instruction; any other error leaves both
    alone.
    """
    if isinstance(exc, HardwareFault):
        cpu.rip = iva
        cpu._burst_retired = before + 1
    elif isinstance(exc, CpuHalt):
        cpu._burst_retired = before + 1
    else:
        cpu._burst_retired = before


def _memo_entry(cpu: Cpu, aspace: AddressSpace, va: int, pa: int) -> tuple:
    """Record what the data check of ``va`` just resolved to.

    The burst memo serves a later access to the same page without a new
    ``Mmu.check``. That is exact while the entry's inputs hold: the
    access context is fixed between handlers that are not inlined (the
    memo is cleared after each, since only those change PKRS, AC or CR
    state); the walk and the PTE — whose A/D bits this check already set
    — are unchanged while the root, L1 and leaf-table frames keep their
    ``Frame.version``; and the shadow-stack flag is compared directly.
    """
    slot, walk = aspace.leaf_path(va)
    phys = cpu.phys
    leaf = phys.frame(slot.table_fn)
    root, l1 = walk[2], walk[5]
    frame = phys.frame(pa >> 12)
    return (frame, leaf, leaf.version, l1, l1.version, root, root.version,
            frame.is_shadow_stack)


def _load_miss(cpu: Cpu, reads: dict, va: int) -> int:
    """A load the memo cannot serve: the checked path, MEM charge left out."""
    aspace = cpu.aspace
    ctx = cpu.access_ctx()
    if va & (PAGE_SIZE - 1) > _LAST_U64:
        return int.from_bytes(cpu.mmu.checked_read(aspace, va, 8, ctx),
                              "little")
    pa = cpu.mmu.check(aspace, va, "read", ctx)
    reads[va >> 12] = _memo_entry(cpu, aspace, va, pa)
    return cpu.phys.read_u64(pa)


def _store_miss(cpu: Cpu, sb, writes: dict, va: int, value: int) -> None:
    """A store the memo cannot serve: the checked path, MEM charge left out.

    The entry is captured before the data write, which may itself hit a
    page table. Its last field says whether the block witness watches
    the data frame, so a memo hit re-validates the witness only when it
    must: every block chained in one burst shares the entry block's
    code page, walk and so its watched frames.
    """
    aspace = cpu.aspace
    ctx = cpu.access_ctx()
    if va & (PAGE_SIZE - 1) > _LAST_U64:
        cpu.mmu.checked_write(aspace, va, (value & U64).to_bytes(8, "little"),
                              ctx)
        return
    pa = cpu.mmu.check(aspace, va, "write", ctx)
    entry = _memo_entry(cpu, aspace, va, pa)
    writes[va >> 12] = entry + (sb.watches(entry[0]),)
    cpu.phys.write_u64(pa, value)


def _self_loop(start_va: int, instrs: tuple) -> bool:
    """True when the block takes the loop form: it ends in a direct jump
    back to its own start and every instruction in it is inlined."""
    last = instrs[-1]
    return (last.op in DIRECT_JUMPS and last.imm == start_va
            and all(map(_inlinable, instrs)))


def _emit_block(start_va: int, instrs: tuple) -> tuple[str, dict]:
    """Generate the source of one block function and its constants."""
    consts: dict = {}
    out = ["def block(cpu, sb, reads, writes, done, budget):",
           "    R = cpu.regs"]
    n = len(instrs)
    loop = _self_loop(start_va, instrs)
    pend = [0, 0, 0]        # instr cycles, mem cycles, retired since flush
    zf_local = loop         # local ``z`` holds ZF, not yet in cpu.zf
    per_pass = (sum(_OP_COSTS.get(i.op, Cost.ALU) for i in instrs),
                sum(Cost.MEM for i in instrs if i.op in ("load", "store")))
    written = []            # registers held in locals that the block sets
    if loop:
        # one pass per turn of the loop; ``it`` counts the loop-backs
        named = sorted({getattr(i, f) for i in instrs
                        for f in _REG_FIELDS.get(i.op, ())})
        written = sorted({i.dst for i in instrs if _REG_FIELDS.get(i.op)
                          and i.op not in ("cmp", "cmpi", "store")})
        out += [f"    r_{r} = R[{r!r}]" for r in named]
        out += ["    z = cpu.zf", "    it = 0",
                # loop again only while the next pass fits the budget
                f"    cap = (budget - done) // {n} - 1", "    while True:"]

    def emit(*lines, depth=1):
        out.extend("    " * (depth + loop) + line for line in lines)

    def reg(name) -> str:
        return f"r_{name}" if loop else f"R[{name!r}]"

    def acc(whole: int, part: int) -> str:
        """A total over the finished passes and the running one."""
        return f"it * {whole} + {part}" if loop and whole else str(part)

    def zf_expr():
        return "z" if zf_local else "cpu.zf"

    def sync(depth=1):
        """Store the register and ZF locals back into the core."""
        emit(*(f"R[{r!r}] = r_{r}" for r in written), depth=depth)
        if zf_local:
            emit("cpu.zf = z", depth=depth)

    def leave(rip: str, retired: int, depth=1):
        """Store ZF and rip, flush, return: one exit of the function.

        The flush is spelled out rather than a ``_flush`` call: a chained
        block runs this exit once per pass."""
        sync(depth)
        emit(f"cpu.rip = {rip}", depth=depth)
        ic, mc, rc = pend
        if rc:
            emit("charge = cpu.clock.charge",
                 f"charge({acc(per_pass[0], ic)}, 'instr')", depth=depth)
            if mc:      # a loop exits only after a store or at its end
                emit(f"charge({acc(per_pass[1], mc)}, 'mem')", depth=depth)
            emit("tcache = cpu.tcache", f"tcache.sb_exec += {acc(n, rc)}",
                 f"tcache.sb_cycles += {acc(per_pass[0], ic)}", depth=depth)
            if loop:
                emit("tcache.sb_hits += it", depth=depth)
        emit(f"return {acc(n, retired)}", depth=depth)

    def guarded(call: str, k: int, iva: int, depth: int):
        """``call``; an exception leaves with everything flushed."""
        emit("try:", f"    {call}", "except _RAISES as exc:", depth=depth)
        if pend[2]:             # an inlined access: nothing synced yet
            sync(depth + 1)
            loops = ", it" if loop else ""
            emit(f"_flush(cpu, {acc(per_pass[0], pend[0])}, "
                 f"{acc(per_pass[1], pend[1])}, {acc(n, pend[2])}{loops})",
                 f"cpu.rip = {iva + INSTR_SIZE}", depth=depth + 1)
        emit(f"_unwind(cpu, exc, {iva}, done + {acc(n, k)})", "raise",
             depth=depth + 1)

    for k, instr in enumerate(instrs):
        op = instr.op
        iva = start_va + k * INSTR_SIZE
        nxt = iva + INSTR_SIZE
        last = k == n - 1
        pend[0] += _OP_COSTS.get(op, Cost.ALU)
        pend[2] += 1
        d = reg(instr.dst)
        s = reg(instr.src)
        imm = instr.imm
        if not _inlinable(instr):
            # flush, then run the handler exactly as step() would
            sync()
            zf_local = False
            emit(f"_flush(cpu, {pend[0]}, {pend[1]}, {pend[2]})")
            pend = [0, 0, 0]
            consts[f"H{k}"] = getattr(Cpu, f"_op_{op}")
            consts[f"I{k}"] = instr
            emit(f"cpu.rip = {nxt}")
            guarded(f"target = H{k}(cpu, I{k})", k, iva, 1)
            if last:
                emit("if target is not None:", "    cpu.rip = target",
                     f"return {n}")
                return "\n".join(out) + "\n", consts
            # the handler may have changed PKRS, AC, CR state or memory
            emit("R = cpu.regs", "reads.clear()", "writes.clear()",
                 "if target is not None:", "    cpu.rip = target",
                 f"    return {k + 1}",
                 "if not sb.fresh():", f"    return {k + 1}")
            continue
        if loop and last:
            # the back-edge: ``jmp`` always takes it, ``jz``/``jnz`` on ZF
            taken = {"jmp": "", "jz": "z and ", "jnz": "not z and "}[op]
            emit(f"if {taken}it < cap:", "    it += 1", "    continue")
        if op == "nop":
            pass
        elif op == "mov":
            emit(f"{d} = {s}")
        elif op == "movi":
            emit(f"{d} = {imm & U64}")
        elif op in _ALU_EXPRS:
            expr = _ALU_EXPRS[op].format(d=d, s=s)
            emit(f"v = ({expr}) & {U64}", f"{d} = v", "z = v == 0")
            zf_local = True
        elif op == "addi":
            emit(f"v = ({d} + {imm}) & {U64}", f"{d} = v", "z = v == 0")
            zf_local = True
        elif op == "cmp":
            emit(f"z = {d} == {s}")
            zf_local = True
        elif op == "cmpi":
            emit(f"z = {d} == {imm & U64}")
            zf_local = True
        elif op == "jmp":
            leave(str(imm), n)
        elif op == "jz":
            leave(f"{imm} if {zf_expr()} else {nxt}", n)
        elif op == "jnz":
            leave(f"{nxt} if {zf_expr()} else {imm}", n)
        elif op == "load":
            emit(f"a = ({s} + {imm}) & {U64}", f"o = a & {PAGE_SIZE - 1}",
                 "e = reads.get(a >> 12)",
                 f"if o <= {_LAST_U64} and e is not None and {_MEMO_VALID}:",
                 "    m = e[0].data",
                 f"    {d} = 0 if m is None else "
                 "int.from_bytes(m[o:o + 8], 'little')",
                 "else:")
            guarded("v = _load_miss(cpu, reads, a)", k, iva, 2)
            emit(f"{d} = v", depth=2)
            pend[1] += Cost.MEM
        elif op == "store":
            emit(f"a = ({d} + {imm}) & {U64}", f"o = a & {PAGE_SIZE - 1}",
                 "e = writes.get(a >> 12)",
                 f"if o <= {_LAST_U64} and e is not None and {_MEMO_VALID}:",
                 "    f = e[0]", "    m = f.data", "    if m is None:",
                 "        m = f.materialize()",
                 f"    m[o:o + 8] = ({s} & {U64}).to_bytes(8, 'little')",
                 "    f.version += 1", "    h = e[8]", "else:")
            guarded(f"_store_miss(cpu, sb, writes, a, {s})", k, iva, 2)
            emit("h = True", depth=2)
            pend[1] += Cost.MEM
            if not last:
                # the store may have rewritten bytes the witness compares
                emit("if h and not sb.fresh():")
                leave(str(nxt), k + 1, depth=2)
        if last and op not in ("jmp", "jz", "jnz"):
            leave(str(nxt), n)
    return "\n".join(out) + "\n", consts


def _compile_block(sb) -> Callable:
    """Return (compiling on first use) the function that runs ``sb``."""
    key = (sb.start_va, sb.instrs)
    fn = _BLOCK_FNS.get(key)
    if fn is None:
        source, namespace = _emit_block(sb.start_va, sb.instrs)
        namespace.update(
            _flush=_flush, _unwind=_unwind, _load_miss=_load_miss,
            _store_miss=_store_miss,
            _RAISES=(HardwareFault, CpuHalt, SimulatorError))
        exec(compile(source, f"<superblock {sb.start_va:#x}>", "exec"),
             namespace)
        fn = namespace["block"]
        if len(_BLOCK_FNS) >= _BLOCK_FNS_MAX:
            _BLOCK_FNS.clear()
        _BLOCK_FNS[key] = fn
    sb.fn = fn
    return fn

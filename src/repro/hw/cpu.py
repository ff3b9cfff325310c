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
from .isa import INSTR_SIZE, Instr, decode_cached
from .memory import PhysicalMemory
from .mmu import KERNEL_MODE, USER_MODE, AccessContext, Mmu
from .paging import AddressSpace
from .translate import TranslationCache


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

        # Handler/cost table, precomputed once: step() and the
        # translation cache both dispatch through it instead of paying
        # getattr(self, f"_op_{op}") + _OP_COSTS.get per instruction.
        self._dispatch: dict[str, tuple[Callable, int]] = {
            name[4:]: (getattr(self, name),
                       _OP_COSTS.get(name[4:], Cost.ALU))
            for name in dir(type(self)) if name.startswith("_op_")
        }
        self.tcache = TranslationCache(self)
        #: instructions retired by an aborted burst (see _translated_burst)
        self._burst_retired = 0
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
        """One interpreted step inside a translated burst.

        Mirrors the single-step loop's fault contract: on any hardware
        fault the retired count includes the faulting attempt and ``rip``
        is left at the faulting instruction for delivery.
        """
        va = self.rip
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
        """Retire up to ``budget`` instructions through the superblock cache.

        Equivalent to repeated :meth:`step` by construction:

        * in-block dispatch charges the same cost from the same handler
          table, in program order — runs of ``PURE_OPS`` fuse their
          charges into one (consecutive same-tag charges with no
          observer between them commute exactly, and pure handlers
          never read the clock, ``rip``, or memory);
        * the witness is re-validated after every memory-writing
          instruction (only those can change witnessed bytes mid-block;
          mode/CR changes and interrupt delivery can only happen at
          block boundaries, where :meth:`TranslationCache.acquire`
          performs the real fetch check);
        * IBT arming, page-straddling fetches, undecodable bytes and
          stale blocks drop to `step` itself, byte-for-byte.

        Returns the number of instructions retired. On a hardware fault
        ``self._burst_retired`` carries the count (including the faulting
        attempt) and ``rip`` points at the faulting instruction.
        """
        if self._ibt_wait:
            return self._step_counted()
        va = self.rip
        try:
            sb = self.tcache.acquire(va)
        except CpuHalt:  # pragma: no cover - acquire cannot halt
            self._burst_retired = 1
            raise
        except HardwareFault:
            self._burst_retired = 1   # the faulting fetch counts as a step
            raise
        if sb is None:
            return self._step_counted()
        entries = sb.entries
        total = len(entries)
        if budget < total:
            # budget tail: retire exactly one instruction, interpreted —
            # identical charges, one extra (architecturally idempotent)
            # fetch check
            return self._step_counted()
        done = 0
        charge = self.clock.charge
        tcache = self.tcache
        for kind, cost, ops in sb.segments:
            if kind == 0:                      # SEG_PURE: fused run
                charge(cost, "instr")
                tcache.sb_exec += len(ops)
                tcache.sb_cycles += cost
                override = None
                for instr, handler in ops:
                    override = handler(instr)
                done += len(ops)
                self.rip = va + done * INSTR_SIZE
                if override is not None:
                    self.rip = override
                    return done
            else:                              # singleton segment
                instr, handler = ops[0]
                charge(cost, "instr")
                tcache.sb_exec += 1
                tcache.sb_cycles += cost
                iva = va + done * INSTR_SIZE
                self.rip = iva + INSTR_SIZE
                try:
                    override = handler(instr)
                except CpuHalt:
                    self._burst_retired = done + 1
                    raise
                except HardwareFault:
                    self._burst_retired = done + 1
                    self.rip = iva
                    raise
                done += 1
                if override is not None:
                    self.rip = override
                    return done
                if kind == 2 and done < total and not sb.fresh():
                    return done   # witness died mid-block: re-acquire
        return done

    def run(self, max_steps: int = 100_000, *, deliver_faults: bool = True) -> int:
        """Run until ``hlt``; optionally vector faults through the IDT.

        Returns the number of instructions retired. Everything executed
        here — instructions, MMU walks, exception delivery — is charged
        to *this* core's cycle counter, so concurrent cores advance the
        machine's wall clock independently.
        """
        steps = 0
        self._halted = False
        translated = self.tcache.enabled
        with self.clock.on_cpu(self.cpu_id):
            while not self._halted and steps < max_steps:
                if translated:
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
                    continue
                start_rip = self.rip
                try:
                    self.step()
                except CpuHalt:
                    self._halted = True
                except HardwareFault as fault:
                    self.rip = start_rip  # fault rip points at the faulting instr
                    if not deliver_faults:
                        raise
                    self.deliver(fault.vector, fault=fault)
                steps += 1
        if steps >= max_steps and not self._halted:
            raise SimulatorError(f"run() exceeded {max_steps} steps (livelock?)")
        return steps

    @property
    def cycle_position(self) -> int:
        """This core's wall position on the shared machine clock."""
        return self.clock.cpu_cycles(self.cpu_id)

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

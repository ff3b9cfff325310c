"""The guest OS kernel (untrusted in Erebor's threat model).

A deliberately small but complete multitasking kernel: demand-paged
virtual memory, a round-robin scheduler driven by APIC timer ticks, a VFS,
a socket stack, and a Linux-flavoured syscall surface. Architecturally it
is written the way the paper's *instrumented* Linux is: every privileged
operation goes through :class:`~repro.kernel.ops.PrivilegedOps`, so the
identical kernel runs both natively (``NativeOps``) and deprivileged under
Erebor (``MonitorOps``), and every user-visible exit (syscall, page fault,
interrupt, #VE) reports through a pluggable :class:`ExitPath`, which is
where Erebor's monitor interposes.

Timing model: tasks "execute" by calling :meth:`advance` (compute cycles)
and the API surfaces (syscalls, page touches); the kernel pumps APIC timer
ticks out of the shared cycle clock, each tick costing the modelled
delivery + handler + (host-emulated) APIC reprogram, and context-switching
when other tasks are runnable.
"""

from __future__ import annotations

from ..hw import regs
from ..hw.cpu import Cpu, Idt
from ..hw.cycles import CPU_FREQ_HZ, Cost, CycleClock
from ..hw.errors import PageFault
from ..hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory, pages_for
from ..hw.mmu import USER_MODE, AccessContext
from ..hw.paging import PTE_NX, PTE_P, PTE_U, PTE_W, AddressSpace, make_pte
from ..obs.ring import RingBuffer
from ..tdx.module import TdxModule, VMCALL_IO
from .net import NetStack
from .ops import NativeOps, PrivilegedOps
from .process import (
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    AnonBacking,
    Backing,
    SegmentationFault,
    Task,
    Vma,
    sandbox_owner,
)
from .vfs import Vfs

TIMER_VECTOR = 32
VE_VECTOR = 20
PF_VECTOR = 14

#: APIC timer frequency and round-robin timeslice of every guest kernel
HZ = 1000
TIMESLICE_TICKS = 4

#: interned trace-record names for the kernel's hot paths — dispatch
#: runs tens of thousands of times per fleet run and must not mint a
#: fresh f-string per record (name cardinality is a few dozen)
_SYSCALL_SPAN_NAMES: dict[str, str] = {}
_VE_EVENT_NAMES: dict[str, str] = {}


class ExitPath:
    """Hook points on every kernel entry; Erebor's monitor overrides this."""

    def on_syscall(self, task: Task, name: str) -> None:
        """A task performed a syscall."""

    def on_pagefault(self, task: Task, va: int, write: bool) -> None:
        """A task faulted."""

    def on_secure_pagefault(self, task: Task, va: int, write: bool,
                            vma=None) -> bool:
        """Offer the fault to a secure pager first; True if fully handled.

        ``vma`` is the already-resolved VMA for ``va`` (or None if the
        caller did not look it up) so the fault path resolves it once.
        """
        return False

    def on_interrupt(self, task: Task, vector: int, count: int = 1) -> None:
        """``count`` external interrupts back to back preempted ``task``
        (a run of timer ticks books them at once)."""

    def on_interrupt_return(self, task: Task, vector: int,
                            count: int = 1) -> None:
        """The kernel finished handling ``count`` interrupts; ``task``
        resumes."""

    def on_ve(self, task: Task | None, reason: str = "",
              count: int = 1) -> None:
        """``count`` virtualization exceptions fired back to back. Only
        the timer tick's ``wrmsr`` passes more than one: a reason the
        monitor emulates or kills on comes one at a time."""

    def sees_each_exit(self) -> bool:
        """Whether something must see every exit as it happens, so the
        kernel books no run of identical ones (see
        :meth:`GuestKernel.tick_run_length`)."""
        return False

    def on_context_switch(self, prev: Task | None, nxt: Task) -> None:
        """The scheduler is switching tasks (shadow-stack switch point)."""

    def fault_run(self, task: Task) -> "FaultRun":
        """The resolver for ``task``'s demand faults in one ``touch_pages``
        call; the default takes none, so each goes through
        :meth:`GuestKernel.handle_page_fault`."""
        return NO_FAULT_RUN


class FaultRun:
    """Resolves runs of missing pages inside one ``touch_pages`` call.

    :meth:`span` resolves the leading pages of a missing span exactly as
    :meth:`GuestKernel.handle_page_fault` would one at a time, deferring
    their clock charges; :meth:`flush` books what is deferred. Every
    other fault goes to the handler, after the caller flushes the run,
    so the ledger is the one per-fault handling leaves. This base form
    declines every span.
    """

    def span(self, va: int, count: int, stride: int, write: bool,
             mem_pages: int, recheck,
             held: bool) -> tuple[int, list[int]] | None:
        """Resolve the faults on the ``count`` pages ``va, va + stride, …``
        of one leaf table; returns their validated PTEs as ``(flags,
        frames)``: the PTE they share, less its frame, and the frame of
        each. The caller installs them: into the table it holds, or,
        without ``held``, into the table it builds once they are
        resolved, as the first page's install would.

        Stops before the first page the handler would not resolve as an
        ordinary demand fault, or whose install the policy refuses; the
        caller hands that page to the per-fault handler. It also stops
        after the first page ``recheck(pte, frames)`` (the caller's
        re-check: how many of ``frames``, mapped with ``pte``'s flags, it
        passes) refuses. ``mem_pages`` is the count of page touches since
        the previous fault whose MEM charges the caller deferred; the run
        books them with its faults, and each later page of the span is
        one more touch. Writes no PTE; returns None when the run declines
        the span's first page, and then the caller hands every page of it
        to the handler.
        """
        return None

    def flush(self) -> None:
        """Book every deferred charge (no-op on an empty run)."""


NO_FAULT_RUN = FaultRun()


def demand_flags(vma: Vma) -> int:
    """The flag bits of the PTE an ordinary demand fault on ``vma``
    installs (see :meth:`GuestKernel.handle_page_fault`)."""
    flags = PTE_P | PTE_U
    if vma.prot & PROT_WRITE:
        flags |= PTE_W
    if not vma.prot & PROT_EXEC:
        flags |= PTE_NX
    return flags


class GuestKernel:
    """One booted guest kernel instance."""

    #: fault-log ring capacity; ``fault_log.dropped`` counts the overflow
    FAULT_LOG_CAPACITY = 4096

    def __init__(self, phys: PhysicalMemory, clock: CycleClock, cpu: Cpu,
                 tdx: TdxModule | None, *, ops: PrivilegedOps | None = None):
        self.phys = phys
        self.clock = clock
        self.cpu = cpu
        self.tdx = tdx
        self.ops = ops or NativeOps(clock, cpu, tdx)
        self.exit_path = ExitPath()

        self.vfs = Vfs()
        self.net = NetStack(self)
        self.modules: dict[str, bytes] = {}
        self.bpf_programs: dict[str, bytes] = {}
        #: what the OS fault handler observed: (pid, va-or-None, write).
        #: va is None when the monitor self-paged the fault (the OS learns
        #: nothing — the controlled-channel defense, §6.1 future work)
        self.fault_log = RingBuffer(self.FAULT_LOG_CAPACITY)
        self.tasks: dict[int, Task] = {}
        self._next_pid = 1
        self.current: Task | None = None
        self._run_queue: list[int] = []

        self.tick_period = CPU_FREQ_HZ // HZ
        self._next_tick = clock.cycles + self.tick_period
        #: callables invoked on every timer tick (system-activity drivers)
        self.tick_hooks: list = []
        self._ticks_on_current = 0
        self.kernel_aspace = AddressSpace(phys, "kernel")
        cpu.env.aspace_by_root[self.kernel_aspace.root_fn] = self.kernel_aspace
        self.idt: Idt | None = None
        self.booted = False

    # ------------------------------------------------------------------ #
    # boot
    # ------------------------------------------------------------------ #

    def boot(self) -> None:
        """Configure the CPU the way arch init code would."""
        self.ops.write_cr(4, self.cpu.crs[4] | regs.CR4_SMEP | regs.CR4_SMAP
                          | regs.CR4_PKS)
        self.ops.write_msr(regs.IA32_LSTAR, 0x60_0000_1000)
        idt = Idt(base_va=0x60_4000_0000, kernel_stack_top=0x60_8000_0000)
        self.ops.set_idt_vector(idt, TIMER_VECTOR, self._timer_py_handler)
        self.ops.set_idt_vector(idt, PF_VECTOR, self._pf_py_handler)
        self.ops.set_idt_vector(idt, VE_VECTOR, self._ve_py_handler)
        self.ops.load_idt(idt)
        self.idt = idt
        self.booted = True

    # ------------------------------------------------------------------ #
    # tasks and scheduling
    # ------------------------------------------------------------------ #

    def spawn(self, name: str, kind: str = "native") -> Task:
        pid = self._next_pid
        self._next_pid += 1
        aspace = AddressSpace(self.phys, f"task{pid}")
        self.cpu.env.aspace_by_root[aspace.root_fn] = aspace
        task = Task(pid, name, aspace, kind=kind)
        self.tasks[pid] = task
        self._run_queue.append(pid)
        if self.current is None:
            self.current = task
        return task

    def exit_task(self, task: Task, code: int = 0) -> None:
        task.state = "dead"
        task.exit_code = code
        if task.pid in self._run_queue:
            self._run_queue.remove(task.pid)
        if self.current is task:
            self.current = None
            self._pick_next()
        if task.kind != "sandbox":
            # sandbox memory is scrubbed by the monitor, not the kernel
            self.reap_task(task)

    def reap_task(self, task: Task) -> None:
        """Tear down a dead task's address space and free its memory.

        Anonymous frames return to the allocator; file-backed and shared
        frames stay (page cache / other mappings). Every PTE clear goes
        through the privileged ops path — under Erebor the monitor
        validates the teardown like any other MMU mutation.
        """
        from .process import AnonBacking
        for vma in list(task.vmas):
            for page in range(vma.length >> PAGE_SHIFT):
                va = vma.start + (page << PAGE_SHIFT)
                if task.aspace.get_pte(va) & PTE_P:
                    self.ops.clear_pte(task.aspace, va)
            if isinstance(vma.backing, AnonBacking):
                self.phys.free_frames(list(vma.backing.frames.values()))
                vma.backing.frames.clear()
            task.remove_vma(vma)
        self.clock.count("task_reaped")

    def _pick_next(self) -> None:
        """Round-robin: rotate current to the back of the run queue and
        switch to the first runnable task; a current task that is the
        only runnable one keeps the CPU, and nothing rotates."""
        current = self.current
        tasks = self.tasks
        queue = self._run_queue
        for pid in queue:
            nxt = tasks[pid]
            if nxt is not current and nxt.state == "runnable":
                break
        else:
            return
        # current moves behind every other task, so the first runnable
        # task other than current is first after the rotation
        if current is not None and current.pid in queue:
            queue.remove(current.pid)
            queue.append(current.pid)
        self.clock.charge(Cost.CONTEXT_SWITCH, "sched")
        self.clock.count("context_switch")
        self.exit_path.on_context_switch(current, nxt)
        self.ops.write_cr(3, nxt.aspace.root_fn)
        self.current = nxt
        self._ticks_on_current = 0

    # ------------------------------------------------------------------ #
    # time: compute + timer pump
    # ------------------------------------------------------------------ #

    def advance(self, cycles: int, task: Task | None = None) -> None:
        """Model ``cycles`` of user computation by ``task`` (or current)."""
        task = task or self.current
        if task is not None:
            task.utime_cycles += cycles
        self.clock.charge(cycles, "compute")
        self.pump()

    def cycles_to_tick(self) -> int:
        """Cycles the clock can still advance without a timer tick due:
        a :meth:`pump` fires one once the clock reaches this many more
        (zero or less: one is due already)."""
        return self._next_tick - self.clock.cycles

    def tick_run_length(self) -> int:
        """How many timer ticks may be booked at once from now: the ticks
        left in the current task's timeslice, so a run ends at or before
        the boundary where :meth:`_pick_next` runs. Exactly one while an
        armed tracer, a tick hook or the exit path must see every tick,
        and once :meth:`_pick_next` keeps a lone task without resetting
        its count (every later tick reaches the boundary)."""
        if (self.tick_hooks or self.clock.tracer.enabled
                or self.exit_path.sees_each_exit()):
            return 1
        return max(TIMESLICE_TICKS - self._ticks_on_current, 1)

    def pump(self) -> None:
        """Fire any timer ticks the clock has run past, a run at a time.

        Every due tick fires, whatever the ticks before it cost, so a run
        books ``min(due, run length)`` of them at once; the re-check
        catches the ticks their own cost made due, as a tick-by-tick
        loop would."""
        clock = self.clock
        period = self.tick_period
        while clock.cycles >= self._next_tick:
            count = min((clock.cycles - self._next_tick) // period + 1,
                        self.tick_run_length())
            self.book_ticks(count)

    def book_ticks(self, count: int) -> None:
        """Fire the next ``count`` timer ticks now, as one run of the
        current task (at most :meth:`tick_run_length` of them)."""
        self._next_tick += count * self.tick_period
        self._timer_tick(count)

    def _timer_tick(self, count: int = 1) -> None:
        with self.clock.tracer.span("irq:timer", "irq"):
            self._timer_tick_body(count)

    def _timer_tick_body(self, count: int) -> None:
        """``count`` ticks of the current task, each step booked ``count``
        times in the order one tick takes them; only the last can reach
        the timeslice boundary."""
        task = self.current
        clock = self.clock
        clock.count("timer_interrupt", count)
        clock.charge(count * Cost.EXC_DELIVERY, "irq")
        if task is not None:
            self.exit_path.on_interrupt(task, TIMER_VECTOR, count)
        clock.charge(count * Cost.TIMER_HANDLER_BASE, "irq")
        # reprogram the APIC timer: host-emulated MSR -> #VE + GHCI exit
        self._host_emulated_msr_write(regs.IA32_APIC_TIMER, count)
        for hook in self.tick_hooks:
            hook()
        self._ticks_on_current += count
        if self._ticks_on_current >= TIMESLICE_TICKS:
            self._pick_next()
        clock.charge(count * Cost.IRET, "irq")
        if task is not None:
            self.exit_path.on_interrupt_return(task, TIMER_VECTOR, count)

    def _host_emulated_msr_write(self, msr: int, count: int) -> None:
        """``count`` wrmsrs the host must emulate: each a #VE, then a GHCI
        exit."""
        clock = self.clock
        clock.count(("ve", "wrmsr"), count)
        clock.tracer.event("ve:wrmsr", "ve", msr=msr)
        clock.charge(count * (Cost.EXC_DELIVERY + Cost.IRET), "ve")
        self.exit_path.on_ve(self.current, "wrmsr", count)
        if self.tdx is not None:
            self.ops.vmcall(VMCALL_IO, ("wrmsr", msr), count)

    # macro py-handlers (installed in the IDT; used when micro code faults)
    def _timer_py_handler(self, cpu, vector, fault) -> None:
        self._timer_tick()

    def _pf_py_handler(self, cpu, vector, fault) -> None:
        if isinstance(fault, PageFault) and self.current is not None:
            self.handle_page_fault(self.current, fault.address, fault.is_write)

    def _ve_py_handler(self, cpu, vector, fault) -> None:
        reason = getattr(fault, "exit_reason", "")
        label = reason or "unknown"
        self.clock.count(("ve", label))
        name = _VE_EVENT_NAMES.get(label)
        if name is None:
            name = _VE_EVENT_NAMES[label] = f"ve:{label}"
        self.clock.tracer.event(name, "ve")
        self.exit_path.on_ve(self.current, reason)

    def raise_ve_interposition(self) -> None:
        """Net stack hook: a #VE occurred on the I/O path."""
        self.exit_path.on_ve(self.current, "io")

    def simulate_device_ve(self) -> None:
        """One host-device notification (virtio doorbell) #VE + GHCI exit."""
        self.clock.count(("ve", "io"))
        self.clock.tracer.event("ve:io", "ve")
        self.clock.charge(Cost.EXC_DELIVERY + Cost.IRET, "ve")
        self.exit_path.on_ve(self.current, "io")
        if self.tdx is not None:
            self.ops.vmcall(VMCALL_IO, ("doorbell",))

    # ------------------------------------------------------------------ #
    # virtual memory
    # ------------------------------------------------------------------ #

    def mmap(self, task: Task, length: int, prot: int, *,
             backing: Backing | None = None, kind: str = "anon",
             fixed_va: int | None = None, pkey: int = 0) -> Vma:
        length = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        start = fixed_va if fixed_va is not None else task.mmap_range(length)
        vma = Vma(start, length, prot, backing or AnonBacking(), kind=kind,
                  pkey=pkey)
        task.add_vma(vma)
        self.clock.count("mmap")
        return vma

    def munmap(self, task: Task, vma: Vma) -> None:
        for page in range(vma.length >> PAGE_SHIFT):
            va = vma.start + (page << PAGE_SHIFT)
            if task.aspace.get_pte(va) & PTE_P:
                self.ops.clear_pte(task.aspace, va)
        task.remove_vma(vma)

    def brk(self, task: Task, new_brk: int) -> int:
        if new_brk > task.brk:
            length = new_brk - task.brk
            self.mmap(task, length, PROT_READ | PROT_WRITE,
                      fixed_va=task.brk, kind="heap")
        task.brk = max(task.brk, new_brk)
        return task.brk

    def handle_page_fault(self, task: Task, va: int, write: bool) -> None:
        """The demand-paging slow path."""
        with self.clock.tracer.span("pagefault", "fault"):
            self._handle_page_fault(task, va, write)

    def _handle_page_fault(self, task: Task, va: int, write: bool) -> None:
        self.clock.count(("page_fault", sandbox_owner(task)))
        self.clock.charge(Cost.EXC_DELIVERY, "pagefault")
        vma = task.find_vma(va)
        handled = self.exit_path.on_secure_pagefault(task, va, write, vma)
        if handled:
            # the monitor resolved the fault internally (self-paging): the
            # kernel only learns that *a* fault occurred, not where
            self.fault_log.append((task.pid, None, write))
            self.clock.charge(Cost.IRET, "pagefault")
            return
        # the ordinary path: the OS fault handler sees the address
        self.fault_log.append((task.pid, va, write))
        self.clock.charge(Cost.PF_HANDLER_BASE, "pagefault")
        self.exit_path.on_pagefault(task, va, write)
        if vma is None or write and not vma.prot & PROT_WRITE:
            # the handler irets into the signal; no PTE is written
            self.clock.charge(Cost.IRET, "pagefault")
            raise SegmentationFault(
                f"{task.name}: no VMA for {va:#x}" if vma is None
                else f"{task.name}: write to read-only {va:#x}")
        fn = vma.backing.frame_for(vma.page_index(va), self.phys,
                                   task.owner_tag)
        self.ops.write_pte(task.aspace, va & ~(PAGE_SIZE - 1),
                           make_pte(fn, demand_flags(vma), vma.pkey))
        # ancillary MMU updates on the fault path (A/D bits, upper levels)
        self.ops.mmu_housekeeping(2)
        self.clock.charge(Cost.IRET, "pagefault")

    def touch_pages(self, task: Task, va: int, length: int, *,
                    write: bool = False, stride: int = PAGE_SIZE) -> int:
        """Model a task touching memory; returns the number of faults taken.

        Each page access goes through the real MMU permission pipeline in
        user context; not-present pages take the demand-paging path.
        """
        ctx = AccessContext(mode=USER_MODE, cr0=self.cpu.crs[0],
                            cr4=self.cpu.crs[4], pkrs=0)
        access = "write" if write else "read"
        mmu = self.cpu.mmu
        clock = self.clock
        aspace = task.aspace
        check = mmu.check
        # Per-page MEM charges are accumulated, and the exit path's fault
        # run defers the charges of the spans it resolves; both are
        # flushed before any point that can observe the clock (the fault
        # handler, a denial, the final pump), so the cycle value at every
        # observation — and the resulting ledger — is identical to
        # charging each page and each fault as it happens.
        pending = 0
        faults = 0
        run = None

        def visit(page_va: int, passed: int) -> None:
            """One page the MMU leaves to this loop: the check, and on a
            fault the handler, then the re-check."""
            nonlocal pending, faults
            pending += passed
            try:
                check(aspace, page_va, access, ctx)
            except PageFault:
                pass
            else:
                pending += 1
                return
            faults += 1
            if run is not None:
                run.flush()
            if pending:
                clock.charge(pending * Cost.MEM, "mem")
            self.handle_page_fault(task, page_va, write)
            check(aspace, page_va, access, ctx)
            pending = 1

        def span(first_va: int, count: int, passed: int, recheck,
                 held: bool) -> tuple[int, list[int]] | None:
            """A run of missing pages in one leaf table: the PTEs the
            fault run resolved its leading pages with (see
            :meth:`FaultRun.span`); the MMU installs them."""
            nonlocal pending, faults, run
            if run is None:
                run = self.exit_path.fault_run(task)
            resolved = run.span(first_va, count, stride, write,
                                pending + passed, recheck, held)
            if resolved is not None and resolved[1]:
                pending = 0
                faults += len(resolved[1])
            return resolved

        try:
            rest = mmu.check_run(aspace, va & ~(PAGE_SIZE - 1), va + length,
                                 stride, access, ctx, visit, span)
        finally:
            if run is not None:
                run.flush()
        pending += rest
        if pending:
            clock.charge(pending * Cost.MEM, "mem")
        self.pump()
        return faults

    # ------------------------------------------------------------------ #
    # dynamic kernel code: modules, eBPF, text_poke (§5.2/§7)
    # ------------------------------------------------------------------ #

    def load_module(self, name: str, blob: bytes) -> None:
        """Load a kernel module; code must pass the privileged verifier."""
        self.ops.verify_dynamic_code(blob, what=f"module {name!r}")
        self.clock.charge(4000 + len(blob) // 16, "module_load")
        self.modules[name] = blob

    def attach_bpf(self, name: str, bytecode: bytes) -> None:
        """Attach an eBPF program (JIT output is kernel text: verified)."""
        self.ops.verify_dynamic_code(bytecode, what=f"eBPF {name!r}")
        self.clock.charge(2500 + len(bytecode) // 8, "module_load")
        self.bpf_programs[name] = bytecode

    def text_poke(self, patch: bytes) -> None:
        """Self-modify kernel text (alternatives/static keys).

        W^X makes kernel text unwritable; the instrumented poke helpers
        hand the patch to the monitor, which validates and applies it."""
        self.ops.verify_dynamic_code(patch, what="text_poke")
        self.clock.charge(1200, "module_load")
        self.clock.count("text_poke")

    # ------------------------------------------------------------------ #
    # syscall entry
    # ------------------------------------------------------------------ #

    def syscall(self, task: Task, name: str, *args, **kwargs):
        """Dispatch one syscall from ``task`` (macro-level entry)."""
        from . import syscalls
        clock = self.clock
        start = clock.cycles
        span_name = _SYSCALL_SPAN_NAMES.get(name)
        if span_name is None:
            span_name = _SYSCALL_SPAN_NAMES[name] = f"syscall:{name}"
        with clock.tracer.span(span_name, "syscall"):
            clock.charge(Cost.SYSCALL_ROUND_TRIP, "syscall")
            # no handler changes its caller's owner (a clone's is set
            # after the syscall returns): this is the owner on return
            clock.count(("syscall", name, sandbox_owner(task)))
            self.exit_path.on_syscall(task, name)
            handler = syscalls.TABLE.get(name)
            if handler is None:
                raise ValueError(f"unknown syscall {name!r}")
            result = handler(self, task, *args, **kwargs)
            self.pump()
        clock.metrics.observe("kernel_syscall_cycles", clock.cycles - start,
                              name=name)
        return result

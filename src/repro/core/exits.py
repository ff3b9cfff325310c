"""Sandbox exit interposition: the monitor between every exit and the OS.

This is the macro-level realization of Figure 7: the monitor's special
syscall entry, exception vectors and GHCI ownership mean *every* exit is
inspected before the kernel sees it. For non-sandbox tasks the inspection
is a cheap classify-and-forward (the system-wide overhead Fig. 10
measures); for a locked sandbox the monitor

* kills the sandbox on any software-controlled exit (syscalls other than
  the channel ioctl, hypercalls, software exceptions),
* emulates ``cpuid`` from its cache instead of exiting,
* saves and masks the register file at external interrupts and restores
  it on resume (so the kernel never sees live sandbox state).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

from ..hw.cycles import Cost
from ..hw.memory import PAGE_SHIFT
from ..hw.paging import make_pte
from ..kernel.kernel import NO_FAULT_RUN, ExitPath, FaultRun, demand_flags
from ..kernel.process import PROT_WRITE, CowBacking, Task, sandbox_owner
from .policy import SandboxViolation

if TYPE_CHECKING:
    from .monitor import EreborMonitor

#: the only syscall a locked sandbox may issue: the channel ioctl
LOCKED_ALLOWED_SYSCALLS = frozenset({"ioctl"})

#: interned ``exit:<cls>`` record names (every interposed exit emits one)
_EXIT_EVENT_NAMES: dict[str, str] = {}


class MonitorExitPath(ExitPath):
    """ExitPath implementation wired into the kernel by stage-2 boot."""

    def __init__(self, monitor: "EreborMonitor"):
        self.monitor = monitor
        self.clock = monitor.clock

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _sandbox_of(self, task: Task | None):
        if task is not None and task.kind == "sandbox":
            return task.sandbox
        return None

    def _charge_exit(self, cls: str, sandbox, count: int = 1) -> None:
        """Inspect ``count`` exits of ``sandbox`` (None: kernel or native)."""
        clock = self.clock
        clock.charge(count * Cost.EXIT_INSPECT, "exit_interpose")
        if sandbox is None:
            clock.count(("kernel_exit", cls, None), count)
        else:
            clock.count(("sandbox_exit", cls, sandbox.sandbox_id), count)
            if self.monitor.features.uarch_model:
                clock.charge(count * Cost.UARCH_PER_SANDBOX_EXIT, "uarch")
            if self.monitor.mitigations is not None:
                self.monitor.mitigations.on_sandbox_exit(sandbox)
        tracer = clock.tracer
        if tracer.enabled:
            name = _EXIT_EVENT_NAMES.get(cls)
            if name is None:
                name = _EXIT_EVENT_NAMES[cls] = f"exit:{cls}"
            tracer.event(name, "exit", sandboxed=sandbox is not None)

    def _pagefault_exits(self, sandbox, count: int = 1) -> None:
        """Interpose ``count`` page-fault exits (see :meth:`_charge_exit`)."""
        self._charge_exit("pagefault", sandbox, count)
        self.clock.charge(count * Cost.INT_GATE_OVERHEAD, "int_gate")
        if sandbox is not None and sandbox.locked:
            # exception exits expose state: mask and later restore
            self.clock.charge(count * (Cost.SANDBOX_STATE_SAVE
                                       + Cost.SANDBOX_STATE_RESTORE),
                              "sandbox_state")

    @staticmethod
    def _self_paged(sandbox, vma) -> bool:
        """Whether the monitor, not the OS, resolves faults on ``vma``."""
        return (sandbox is not None and vma is not None
                and vma.kind == "confined"
                and (sandbox.secure_paging
                     or isinstance(vma.backing, CowBacking)))

    @property
    def _active(self) -> bool:
        return self.monitor.features.exit_protection

    # ------------------------------------------------------------------ #
    # hook implementations
    # ------------------------------------------------------------------ #

    def on_syscall(self, task: Task, name: str) -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        self._charge_exit("syscall", sandbox)
        if sandbox is not None and sandbox.locked \
                and name not in LOCKED_ALLOWED_SYSCALLS:
            sandbox.kill(f"syscall {name!r} after client data load")
            raise SandboxViolation(sandbox.sandbox_id,
                                   f"syscall {name!r} while locked")

    def on_secure_pagefault(self, task: Task, va: int, write: bool,
                            vma=None) -> bool:
        """Self-paging (§6.1 future work / Autarky): the monitor resolves
        faults on secure-paged confined memory without exposing the
        faulting address to the OS, closing the controlled channel.
        Copy-on-write confined memory of forked sandboxes is always
        self-paged: reads map the shared template frame, first writes
        duplicate the page into a private confined frame."""
        sandbox = self._sandbox_of(task)
        if sandbox is None:
            return False
        if vma is None:
            vma = task.find_vma(va)
        if not self._self_paged(sandbox, vma):
            return False
        if isinstance(vma.backing, CowBacking):
            return sandbox.resolve_cow_fault(vma, va, write)
        if write and not vma.prot & 0x2:
            return False      # real protection violation: let the OS kill it
        from ..hw.paging import PTE_NX, PTE_P, PTE_U, PTE_W
        page_va = va & ~0xFFF
        fn = vma.backing.frame_for(vma.page_index(va), self.monitor.phys,
                                   task.owner_tag)
        flags = PTE_P | PTE_U | PTE_NX | (PTE_W if vma.prot & 0x2 else 0)
        self.clock.charge(Cost.PF_HANDLER_BASE // 2, "secure_pager")
        self.monitor.vmmu.write_pte(task.aspace, page_va,
                                    make_pte(fn, flags, vma.pkey))
        self.clock.count("secure_fault")
        return True

    def on_pagefault(self, task: Task, va: int, write: bool) -> None:
        if not self._active:
            return
        self._pagefault_exits(self._sandbox_of(task))

    def fault_run(self, task: Task) -> FaultRun:
        """A :class:`MonitorFaultRun` for ``task``, unless something must
        see each fault as it happens: an armed tracer or flight recorder,
        §12 mitigations, or an ablated MMU, exit or uarch model."""
        monitor = self.monitor
        features = monitor.features
        if (self.clock.tracer.enabled or monitor.mitigations is not None
                or not (features.mmu_isolation and features.exit_protection
                        and features.uarch_model)):
            return NO_FAULT_RUN
        return MonitorFaultRun(self, task)

    def sees_each_exit(self) -> bool:
        """§12 mitigations act on every sandbox exit as it happens."""
        return self.monitor.mitigations is not None

    def on_interrupt(self, task: Task, vector: int, count: int = 1) -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        self._charge_exit("irq", sandbox, count)
        self.clock.charge(count * Cost.INT_GATE_OVERHEAD, "int_gate")
        if sandbox is not None and sandbox.locked:
            # save + mask the register file before the OS handler runs
            self.clock.charge(count * Cost.SANDBOX_STATE_SAVE,
                              "sandbox_state")
            sandbox.note_masked_entry(count)

    def on_interrupt_return(self, task: Task, vector: int,
                            count: int = 1) -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        if sandbox is not None and sandbox.locked:
            self.clock.charge(count * Cost.SANDBOX_STATE_RESTORE,
                              "sandbox_state")
            sandbox.note_masked_exit(count)

    def on_context_switch(self, prev: Task | None, nxt: Task) -> None:
        """Task switch: the monitor swaps the per-task kernel shadow stack
        (IA32_PL0_SSP is monitor-owned; the kernel cannot write it)."""
        self.monitor.sst_manager.switch(0, prev, nxt)

    def on_ve(self, task: Task | None, reason: str = "",
              count: int = 1) -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        self._charge_exit("ve", sandbox, count)
        if sandbox is None or not sandbox.locked:
            return
        if reason == "cpuid":
            # emulated from the monitor's cache: no exit reaches the host
            self.monitor.emulated_cpuid()
            return
        if reason in ("hypercall", "sandbox_hypercall"):
            sandbox.kill(f"VM exit ({reason}) after client data load")
            raise SandboxViolation(sandbox.sandbox_id,
                                   f"hypercall while locked")


class MonitorFaultRun(FaultRun):
    """One pass over the missing spans of one task's ``touch_pages`` call.

    Takes the leading pages of a span :meth:`GuestKernel.handle_page_fault`
    would resolve on the OS path (not copy-on-write, not secure-paged),
    and keeps each per-page step with a state effect, in order: the
    ``fault_log`` record, the VMA bound check and demand PTE, and the
    validated admission (:meth:`NestedMmu.admit_run`; the MMU writes the
    PTEs). The constant per-fault costs — exception delivery, handler and
    iret, the exit interposition, and three EMC round trips with their
    native PTE writes — are deferred, and :meth:`flush` books them ``n``
    times each by the same charging code a single fault uses, in the
    order it first charges them, so the clock's ledgers keep their
    insertion order. A page the run does not take, failing ones
    included, goes to the handler after the run is flushed.
    """

    __slots__ = ("_exits", "_clock", "_kernel", "_vmmu", "_task", "_owner",
                 "_sandbox", "_faults", "_mem_pages")

    def __init__(self, exits: MonitorExitPath, task: Task):
        monitor = exits.monitor
        self._exits = exits
        self._clock = exits.clock
        self._kernel = monitor.kernel
        self._vmmu = monitor.vmmu
        self._task = task
        self._sandbox = exits._sandbox_of(task)
        self._owner = sandbox_owner(task)
        self._faults = 0
        self._mem_pages = 0

    def span(self, va: int, count: int, stride: int, write: bool,
             mem_pages: int, recheck,
             held: bool) -> tuple[int, list[int]] | None:
        """The span's leading faults at once: one VMA check, the frames
        from ``Backing.frames_for``, the policy through
        :meth:`NestedMmu.admit_run`, one ``fault_log`` extend. A backing
        that allocates goes one page at a time, so no frame is allocated
        for a page past the first one refused, and, without ``held``,
        resolves only the first page, whose install builds the leaf
        table before the next page allocates."""
        task = self._task
        vma = task.find_vma(va)
        if (vma is None or self._exits._self_paged(self._sandbox, vma)
                or not 0 <= vma.pkey <= 15
                or write and not vma.prot & PROT_WRITE):
            # the first page fails in the handler or is not the run's
            return None
        count = min(count, (vma.start + vma.length - 1 - va) // stride + 1)
        aspace = task.aspace
        vmmu = self._vmmu
        phys = vmmu.phys
        pte = make_pte(0, demand_flags(vma), vma.pkey)
        backing = vma.backing
        index = vma.page_index(va)
        step = stride >> PAGE_SHIFT
        if backing.allocates:
            if not held:
                count = 1
            frames = []
            while len(frames) < count:
                page_va = va + len(frames) * stride
                frame = backing.frames_for(index + len(frames) * step, 1,
                                           step, phys, task.owner_tag)
                if not vmmu.admit_run(aspace, page_va, stride, pte, frame):
                    break
                frames += frame
                if not recheck(pte, frame):
                    break
        else:
            frames = backing.frames_for(index, count, step, phys,
                                        task.owner_tag)
            frames = frames[:recheck(pte, frames) + 1]
            frames = frames[:vmmu.admit_run(aspace, va, stride, pte, frames)]
        done = len(frames)
        if not done:
            return pte, frames
        if aspace.root_fn not in vmmu.registered_roots:
            vmmu.register_aspace(aspace)
        if self._faults:
            self._mem_pages += mem_pages + done - 1
        else:
            if mem_pages:
                # a new run: book the touches before it
                self._clock.charge(mem_pages * Cost.MEM, "mem")
            self._mem_pages += done - 1
        self._kernel.fault_log.extend(zip(
            repeat(task.pid), range(va, va + done * stride, stride),
            repeat(write)))
        self._faults += done
        return pte, frames

    def flush(self) -> None:
        """Book the run's ``n`` faults, each with its iret, three MMU EMCs
        and their native PTE writes, and the MEM touches between them;
        empties the run."""
        n = self._faults
        if not n:
            return
        clock = self._clock
        clock.count(("page_fault", self._owner), n)
        clock.charge(n * (Cost.EXC_DELIVERY + Cost.PF_HANDLER_BASE
                          + Cost.IRET), "pagefault")
        exits = self._exits
        exits._pagefault_exits(self._sandbox, n)
        exits.monitor.charge_emc_batch(Cost.VALIDATE_MMU, kind="mmu",
                                       count=3 * n)
        clock.charge(3 * n * Cost.PTE_WRITE_NATIVE, "mmu_op")
        clock.count("pte_write", 3 * n)
        if self._mem_pages:
            clock.charge(self._mem_pages * Cost.MEM, "mem")
            self._mem_pages = 0
        self._faults = 0

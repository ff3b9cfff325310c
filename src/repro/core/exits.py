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

from typing import TYPE_CHECKING

from ..hw.cycles import Cost
from ..kernel.kernel import ExitPath
from ..obs.metrics import HandleCache, owner_label
from ..kernel.process import CowBacking, Task
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
        self._last_exit_cycle: int | None = None
        #: (cls, owner) → exit metric write handles; "pkrs" → its handle
        self._metric_handles = HandleCache()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _sandbox_of(self, task: Task | None):
        if task is not None and task.kind == "sandbox":
            return task.sandbox
        return None

    def _charge_exit(self, cls: str, sandbox) -> None:
        """Inspect one exit of ``sandbox`` (None: kernel or native)."""
        clock = self.clock
        clock.charge(Cost.EXIT_INSPECT, "exit_interpose")
        owner = None
        if sandbox is not None:
            owner = sandbox.sandbox_id
            clock.count(("sandbox_exit", cls, owner))
            if self.monitor.features.uarch_model:
                clock.charge(Cost.UARCH_PER_SANDBOX_EXIT, "uarch")
            if self.monitor.mitigations is not None:
                self.monitor.mitigations.on_sandbox_exit(sandbox)
        metrics = clock.metrics
        if metrics.enabled:
            handles = self._metric_handles.get(metrics, (cls, owner))
            if handles is None:
                handles = self._metric_handles.put((cls, owner), (
                    metrics.counter_handle("erebor_exits_total", cls=cls,
                                           sandbox=owner_label(owner)),
                    metrics.histogram_handle("erebor_exit_gap_cycles"),
                ))
            exits_total, exit_gap = handles
            exits_total.inc()
            # exit-gap histogram: cycles between consecutive interposed
            # exits, the interposition-frequency distribution Fig. 10 keys
            last = self._last_exit_cycle
            if last is not None:
                exit_gap.observe(clock.cycles - last)
            self._last_exit_cycle = clock.cycles
        name = _EXIT_EVENT_NAMES.get(cls)
        if name is None:
            name = _EXIT_EVENT_NAMES[cls] = f"exit:{cls}"
        clock.tracer.event(name, "exit", sandboxed=sandbox is not None)

    def _pkrs_toggle(self) -> None:
        """Bump the PKRS-write counter through a cached handle."""
        metrics = self.clock.metrics
        if metrics.enabled:
            handle = self._metric_handles.get(metrics, "pkrs")
            if handle is None:
                handle = self._metric_handles.put(
                    "pkrs",
                    metrics.counter_handle("erebor_pkrs_toggles_total"))
            handle.inc(2)

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
            self.monitor.clock.count("sandbox_kill")
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
        if vma is not None and vma.kind == "confined":
            if isinstance(vma.backing, CowBacking):
                return sandbox.resolve_cow_fault(vma, va, write)
        if not sandbox.secure_paging:
            return False
        if vma is None or vma.kind != "confined":
            return False
        if write and not vma.prot & 0x2:
            return False      # real protection violation: let the OS kill it
        from ..hw.paging import PTE_NX, PTE_P, PTE_U, PTE_W, make_pte
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
        sandbox = self._sandbox_of(task)
        self._charge_exit("pagefault", sandbox)
        self.clock.charge(Cost.INT_GATE_OVERHEAD, "int_gate")
        self._pkrs_toggle()
        if sandbox is not None and sandbox.locked:
            # exception exits expose state: mask and later restore
            self.clock.charge(Cost.SANDBOX_STATE_SAVE
                              + Cost.SANDBOX_STATE_RESTORE, "sandbox_state")

    def on_interrupt(self, task: Task, vector: int) -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        self._charge_exit("irq", sandbox)
        self.clock.charge(Cost.INT_GATE_OVERHEAD, "int_gate")
        self._pkrs_toggle()
        if sandbox is not None and sandbox.locked:
            # save + mask the register file before the OS handler runs
            self.clock.charge(Cost.SANDBOX_STATE_SAVE, "sandbox_state")
            sandbox.note_masked_entry()

    def on_interrupt_return(self, task: Task, vector: int) -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        if sandbox is not None and sandbox.locked:
            self.clock.charge(Cost.SANDBOX_STATE_RESTORE, "sandbox_state")
            sandbox.note_masked_exit()

    def on_context_switch(self, prev: Task | None, nxt: Task) -> None:
        """Task switch: the monitor swaps the per-task kernel shadow stack
        (IA32_PL0_SSP is monitor-owned; the kernel cannot write it)."""
        self.monitor.sst_manager.switch(0, prev, nxt)

    def on_ve(self, task: Task | None, reason: str = "") -> None:
        if not self._active:
            return
        sandbox = self._sandbox_of(task)
        self._charge_exit("ve", sandbox)
        if sandbox is None or not sandbox.locked:
            return
        if reason == "cpuid":
            # emulated from the monitor's cache: no exit reaches the host
            self.monitor.emulated_cpuid()
            return
        if reason in ("hypercall", "sandbox_hypercall"):
            self.monitor.clock.count("sandbox_kill")
            sandbox.kill(f"VM exit ({reason}) after client data load")
            raise SandboxViolation(sandbox.sandbox_id,
                                   f"hypercall while locked")

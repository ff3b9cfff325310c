"""Per-task kernel shadow stacks, monitor-managed (paper §2.2 + §5.3).

Kernel shadow stacks are per-logical-core and per-task; switching tasks
means switching ``IA32_PL0_SSP`` — a monitor-owned MSR under Erebor (the
kernel writing it freely could point the checker at attacker-built return
records). The monitor therefore owns the whole lifecycle:

* allocate each task's stack in write-protected shadow-stack frames with
  a supervisor token at the top,
* on context switch (an EMC): verify + release the outgoing task's busy
  token, verify + claim the incoming one, write the SSP,
* refuse activation of busy or corrupted tokens — the one-core-at-a-time
  rule the paper quotes from the CET spec.

The paper's Linux prototype omits kernel SST (unsupported upstream at the
time); this module implements the full design the paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hw import cet
from ..hw.cycles import Cost
from ..hw.memory import PAGE_SIZE
from ..kernel.process import sandbox_owner

if TYPE_CHECKING:
    from ..kernel.process import Task
    from .monitor import EreborMonitor

#: kernel-VA region housing per-task shadow stacks
TASK_SST_BASE = 0x60_C000_0000
TASK_SST_STRIDE = 16 * PAGE_SIZE
TASK_SST_PAGES = 4


class ShadowStackManager:
    """Monitor-side bookkeeping for every task's kernel shadow stack."""

    def __init__(self, monitor: "EreborMonitor"):
        self.monitor = monitor
        self._token_by_pid: dict[int, int] = {}
        #: cpu_id -> token VA of the stack that core currently holds busy
        self.active: dict[int, int] = {}
        self._next_slot = 0

    # ------------------------------------------------------------------ #

    def stack_for(self, task: "Task") -> int:
        """Return (allocating on first use) the task's stack token VA."""
        token = self._token_by_pid.get(task.pid)
        if token is None:
            kernel = self.monitor.kernel
            base = TASK_SST_BASE + self._next_slot * TASK_SST_STRIDE
            self._next_slot += 1
            token = cet.allocate_shadow_stack(
                self.monitor.phys, kernel.kernel_aspace, base,
                TASK_SST_PAGES, owner="monitor")
            self._token_by_pid[task.pid] = token
            self.monitor.clock.charge(
                TASK_SST_PAGES * Cost.PTE_WRITE_NATIVE, "sst")
        return token

    def switch(self, cpu_id: int, prev: "Task | None", nxt: "Task") -> None:
        """The context-switch EMC body: release prev's stack, claim next's."""
        monitor = self.monitor
        kernel = monitor.kernel
        phys = monitor.phys
        aspace = kernel.kernel_aspace
        with monitor.clock.tracer.span("emc:sst", "emc"):
            monitor.clock.charge(Cost.EMC_ROUND_TRIP + Cost.VALIDATE_MSR,
                                 "sst")
        monitor.clock.count(("emc", "sst", sandbox_owner(nxt)))
        monitor.clock.count("sst_switch")
        held = self.active.get(cpu_id)
        if held is not None:
            cet.deactivate_shadow_stack(kernel.cpu, aspace, held, phys)
        token = self.stack_for(nxt)
        cet.activate_shadow_stack(kernel.cpu, aspace, token, phys)
        self.active[cpu_id] = token

    def release_task(self, task: "Task") -> None:
        """A task died: retire its stack (frames stay monitor-owned)."""
        self._token_by_pid.pop(task.pid, None)

"""EREBOR-SANDBOX: the per-client sandboxed container (§6.1-§6.2).

A sandbox is one kernel task group whose memory is split into *confined*
regions (exclusively owned, pinned, single-mapped, holding client data)
and *common* regions (read-only shared instances of large artifacts). Its
lifecycle follows the paper:

    CREATED → (declare memory, preload program/files) READY
            → (first client data installed) LOCKED
            → (session end / violation) DEAD

Locking is the moment the protections tighten: syscalls and VM exits
become kill conditions, user-mode interrupts are disabled, and common
regions seal read-only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hw import regs
from ..hw.cycles import Cost
from ..hw.memory import PAGE_SHIFT, PAGE_SIZE, pages_for
from ..hw.paging import PTE_NX, PTE_P, PTE_U, PTE_W, make_pte
from ..kernel.process import (
    CowBacking,
    PinnedBacking,
    PROT_READ,
    PROT_WRITE,
    SharedBacking,
    Task,
    Vma,
)
from .policy import PolicyViolation

if TYPE_CHECKING:
    from .monitor import EreborMonitor

#: default size of the confined I/O buffer the channel writes into
IO_BUFFER_BYTES = 256 * 1024


class Sandbox:
    """One sandboxed container."""

    def __init__(self, monitor: "EreborMonitor", sandbox_id: int, name: str,
                 *, confined_budget: int, threads: int = 1):
        self.monitor = monitor
        self.sandbox_id = sandbox_id
        self.name = name
        self.confined_budget = confined_budget
        self.max_threads = threads
        kernel = monitor.kernel
        self.task: Task = kernel.spawn(name, kind="sandbox")
        self.task.sandbox = self
        self.threads: list[Task] = [self.task]
        monitor.vmmu.register_sandbox(sandbox_id, self.task.aspace)

        self.state = "created"
        #: owning fleet tenant ("" outside fleet runs); routes per-tenant
        #: §12 mitigations without the monitor consulting the scheduler
        self.tenant = ""
        self.confined_bytes = 0
        self.confined_frames: list[int] = []
        self.confined_vmas: list[Vma] = []
        self.common_names: list[str] = []
        self.io_vma: Vma | None = None
        self.input_queue: list[bytes] = []
        self.output_queue: list[bytes] = []
        self.kill_reason: str | None = None
        self._masked_depth = 0
        self.channel = None   # attached SecureChannel
        #: fleet request trace ID this slot currently serves (None outside
        #: fleet runs). Part of session state, not container state: every
        #: scrub path (kill / cleanup / warm reset) clears it, so a trace
        #: ID can never survive C8 slot reuse and leak across tenants.
        self.trace_context = None
        #: §6.1 future work: monitor-handled (address-hiding) demand paging
        self.secure_paging = False
        #: sealed channel records delivered in and out (per-class exit
        #: counts live on the clock's labelled ``sandbox_exit`` key)
        self.stats: dict[str, int] = {"inputs": 0, "outputs": 0}

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def locked(self) -> bool:
        return self.state == "locked"

    @property
    def dead(self) -> bool:
        return self.state == "dead"

    @property
    def is_template(self) -> bool:
        return self.state == "template"

    def note_masked_entry(self, count: int = 1) -> None:
        self._masked_depth += count

    def note_masked_exit(self, count: int = 1) -> None:
        self._masked_depth = max(0, self._masked_depth - count)

    # ------------------------------------------------------------------ #
    # memory declaration (LibOS loader calls these via EMC)
    # ------------------------------------------------------------------ #

    def declare_confined(self, size: int, *, prefault: bool = True,
                         secure_paging: bool = False,
                         label: str = "heap") -> Vma:
        """Reserve, pin and (optionally) pre-populate confined memory.

        ``secure_paging`` declares the region *without* prefaulting and
        arms the monitor's self-pager: faults on it are resolved inside
        the monitor and the OS never learns the faulting addresses —
        trading the one-time prefault cost for controlled-channel-safe
        lazy population (§6.1's cited future work).
        """
        if secure_paging:
            prefault = False
            self.secure_paging = True
        if self.dead:
            raise PolicyViolation(f"sandbox {self.sandbox_id} is dead")
        if self.is_template:
            raise PolicyViolation(
                f"sandbox {self.sandbox_id} is a sealed template")
        if self.locked:
            raise PolicyViolation(
                "confined memory must be declared before client data arrives")
        if self.confined_bytes + size > self.confined_budget:
            raise PolicyViolation(
                f"confined budget exceeded: {self.confined_bytes + size} "
                f"> {self.confined_budget}")
        self.monitor.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
        pages = pages_for(size)
        frames = self.monitor.take_cma_frames(
            pages, f"sandbox:{self.sandbox_id}")
        self.monitor.vmmu.declare_confined(self.sandbox_id, frames)
        self.confined_frames.extend(frames)
        self.confined_bytes += pages * PAGE_SIZE
        kernel = self.monitor.kernel
        vma = kernel.mmap(self.task, pages * PAGE_SIZE,
                          PROT_READ | PROT_WRITE,
                          backing=PinnedBacking(frames), kind="confined")
        self.confined_vmas.append(vma)
        if prefault:
            # populate + pin the page table now: this is the one-time
            # initialization cost Table 6 reports
            kernel.touch_pages(self.task, vma.start, pages * PAGE_SIZE,
                               write=True)
        if self.io_vma is None and label != "io":
            self.io_vma = self.declare_confined(IO_BUFFER_BYTES,
                                                prefault=True, label="io")
        if label == "io":
            return vma
        self.state = "ready"
        return vma

    def attach_common(self, name: str, size: int, *,
                      initializer: bool = False) -> Vma:
        """Map a named common region (created on first attach)."""
        if self.dead:
            raise PolicyViolation(f"sandbox {self.sandbox_id} is dead")
        self.monitor.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
        vmmu = self.monitor.vmmu
        region = vmmu.common_regions.get(name)
        if region is None:
            frames = self.monitor.phys.alloc_frames(pages_for(size), "tmp")
            region = vmmu.create_common_region(
                name, frames, self.sandbox_id if initializer else None)
        if len(region.frames) < pages_for(size):
            raise PolicyViolation(
                f"common region {name!r} smaller than requested size")
        writable = (region.writable and initializer
                    and region.initializer == self.sandbox_id)
        prot = PROT_READ | (PROT_WRITE if writable else 0)
        kernel = self.monitor.kernel
        vma = kernel.mmap(self.task, len(region.frames) * PAGE_SIZE, prot,
                          backing=SharedBacking(region.frames), kind="common")
        self.common_names.append(name)
        return vma

    def adopt_cow_vma(self, template_frames: list[int], template: str,
                      *, io: bool = False) -> Vma:
        """Map a template's confined region copy-on-write (§9.2 forking).

        No frames are taken and no page table is populated here: every
        page lazily maps the shared template frame read-only on first
        read, and is duplicated into a fresh private confined frame on
        first write — both resolved inside the monitor (self-paging), so
        the OS never learns which pages diverged from the template.
        """
        if self.dead:
            raise PolicyViolation(f"sandbox {self.sandbox_id} is dead")
        if self.locked:
            raise PolicyViolation(
                "confined memory must be declared before client data arrives")
        nbytes = len(template_frames) * PAGE_SIZE
        if self.confined_bytes + nbytes > self.confined_budget:
            raise PolicyViolation(
                f"confined budget exceeded: {self.confined_bytes + nbytes} "
                f"> {self.confined_budget}")
        self.monitor.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
        vma = self.monitor.kernel.mmap(
            self.task, nbytes, PROT_READ | PROT_WRITE,
            backing=CowBacking(list(template_frames), template),
            kind="confined")
        self.confined_vmas.append(vma)
        self.confined_bytes += nbytes
        if io:
            self.io_vma = vma
        self.state = "ready"
        return vma

    def resolve_cow_fault(self, vma: Vma, va: int, write: bool) -> bool:
        """Monitor self-pager for copy-on-write confined memory.

        Reads map the shared template frame read-only; the first write to
        a page allocates a private CMA frame, copies the template
        contents, registers it confined (single-mapped, C6) and remaps
        writable. The kernel only learns that *a* fault occurred.
        """
        monitor = self.monitor
        clock = monitor.clock
        backing = vma.backing
        page = vma.page_index(va)
        page_va = va & ~(PAGE_SIZE - 1)
        clock.charge(Cost.PF_HANDLER_BASE // 2, "secure_pager")
        fn = backing.private.get(page)
        if fn is None and write:
            [fn] = monitor.take_cma_frames(1, f"sandbox:{self.sandbox_id}")
            src = monitor.phys.peek(backing.template_frames[page])
            if src is not None and src.data is not None:
                monitor.phys.write(fn << PAGE_SHIFT, bytes(src.data))
            clock.charge(Cost.COPY_PER_PAGE_NATIVE, "cow_copy")
            monitor.vmmu.declare_confined(self.sandbox_id, [fn])
            self.confined_frames.append(fn)
            # retire the read-only template mapping before the private one
            if self.task.aspace.get_pte(page_va) & PTE_P:
                monitor.vmmu.write_pte(self.task.aspace, page_va, 0)
            backing.private[page] = fn
            clock.count(("cow_break", self.sandbox_id))
        target = fn if fn is not None else backing.template_frames[page]
        flags = PTE_P | PTE_U | PTE_NX | (PTE_W if fn is not None else 0)
        monitor.vmmu.write_pte(self.task.aspace, page_va,
                               make_pte(target, flags, vma.pkey))
        clock.count("secure_fault")
        return True

    def spawn_thread(self) -> Task:
        """Pre-create a worker thread (clone before lock, §6.2)."""
        if self.locked:
            raise PolicyViolation("threads must be created before lock")
        if len(self.threads) >= self.max_threads:
            raise PolicyViolation(
                f"thread limit {self.max_threads} reached")
        thread = self.monitor.kernel.syscall(self.task, "clone",
                                             f"{self.name}-t{len(self.threads)}")
        thread.kind = "sandbox"
        thread.sandbox = self
        # threads share the sandbox address space
        thread.aspace = self.task.aspace
        thread.vmas = self.task.vmas
        self.threads.append(thread)
        return thread

    # ------------------------------------------------------------------ #
    # lock / kill / cleanup
    # ------------------------------------------------------------------ #

    def lock(self) -> None:
        """Client data has arrived: tighten every protection (§6.2)."""
        if self.locked:
            return
        if self.dead:
            raise PolicyViolation(f"sandbox {self.sandbox_id} is dead")
        if self.is_template:
            raise PolicyViolation(
                f"sandbox {self.sandbox_id} is a sealed template; "
                "fork it instead of locking it")
        monitor = self.monitor
        # disable user-mode interrupt sending from this sandbox
        monitor.clock.charge(Cost.WRMSR_SLOW_NATIVE, "msr_op")
        monitor.cpu.msrs[regs.IA32_UINTR_TT] = 0
        # seal every attached common region read-only (PTEs + VMA prot,
        # so later refaults of reclaimed pages map read-only too)
        for name in self.common_names:
            region = monitor.vmmu.common_regions[name]
            if region.writable:
                monitor.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
                monitor.vmmu.seal_common_region(name)
        for vma in self.task.vmas:
            if vma.kind == "common":
                vma.prot &= ~PROT_WRITE
        self.state = "locked"
        monitor.clock.count("sandbox_lock")
        monitor.clock.tracer.event("sandbox:lock", "sandbox",
                                   sandbox=self.sandbox_id)
        monitor.clock.metrics.set_gauge("erebor_sandbox_confined_bytes",
                                        self.confined_bytes,
                                        sandbox=str(self.sandbox_id))
        monitor.audit("sandbox", f"locked #{self.sandbox_id} "
                      f"({self.confined_bytes >> 20} MiB confined)")

    def kill(self, why: str) -> None:
        """Terminate on violation: scrub everything, mark dead."""
        if self.dead:
            return
        self.kill_reason = why
        clock = self.monitor.clock
        clock.count("sandbox_killed")
        clock.tracer.event("sandbox:kill", "sandbox",
                           sandbox=self.sandbox_id, why=why)
        self.monitor.audit("kill", f"sandbox #{self.sandbox_id}: {why}")
        clock.tracer.trigger("sandbox_kill",
                             f"sandbox #{self.sandbox_id}: {why}")
        self._scrub()
        self.trace_context = None
        self.state = "dead"

    def cleanup(self) -> None:
        """Graceful session end: return results were sent; scrub (§6.3)."""
        if self.dead:
            return
        self.monitor.clock.tracer.event("sandbox:cleanup", "sandbox",
                                        sandbox=self.sandbox_id)
        self._scrub()
        self.trace_context = None
        self.state = "dead"

    def reset_for_reuse(self) -> None:
        """Warm-start (§9.2): scrub contents, keep the container standing.

        The expensive parts of initialization — confined declaration,
        page-table population and pinning, thread creation — survive;
        only data is zeroed and the lock reopened, so the next client's
        session skips the 11.5-52.7% one-time cost.
        """
        if self.dead:
            raise PolicyViolation(
                f"sandbox {self.sandbox_id} is dead; create a new one")
        if self.is_template:
            raise PolicyViolation(
                f"sandbox {self.sandbox_id} is a sealed template")
        monitor = self.monitor
        # scrub cost is proportional to the pages that held client state:
        # all confined frames, which for a forked sandbox are exactly the
        # privately-copied (dirtied) pages
        pages = len(self.confined_frames)
        monitor.clock.charge(pages * Cost.COPY_PER_PAGE_NATIVE, "scrub")
        # forked sandboxes: drop every private copy and fall back to the
        # golden template view — the next client refaults read-only and
        # re-copies on write, so reuse also *restores* the pre-init state
        dropped: list[int] = []
        for vma in self.confined_vmas:
            backing = vma.backing
            if not isinstance(backing, CowBacking):
                continue
            for page, fn in sorted(backing.private.items()):
                va = vma.start + (page << PAGE_SHIFT)
                if self.task.aspace.get_pte(va) & PTE_P:
                    monitor.vmmu.write_pte(self.task.aspace, va, 0)
                dropped.append(fn)
            backing.private.clear()
        if dropped:
            monitor.vmmu.release_confined_frames(dropped)
            drop_set = set(dropped)
            self.confined_frames = [fn for fn in self.confined_frames
                                    if fn not in drop_set]
            monitor.return_cma_frames(dropped)   # zeroes on return
        # zero the remaining (pinned-in-place) confined frames
        for fn in self.confined_frames:
            monitor.phys.zero_frame(fn)
        self.input_queue.clear()
        self.output_queue.clear()
        self._masked_depth = 0
        self.channel = None
        self.trace_context = None       # C8: no trace ID survives reuse
        self.state = "ready"
        monitor.clock.count(("sandbox_warm_reset", self.sandbox_id))
        monitor.clock.tracer.event("sandbox:warm_reset", "sandbox",
                                   sandbox=self.sandbox_id)

    def _scrub(self) -> None:
        kernel = self.monitor.kernel
        for vma in list(self.confined_vmas):
            if vma in self.task.vmas:
                kernel.munmap(self.task, vma)
        self.monitor.vmmu.release_confined(self.sandbox_id)
        self.monitor.return_cma_frames(self.confined_frames)
        self.confined_frames = []
        self.input_queue.clear()
        self.output_queue.clear()
        for thread in self.threads:
            if thread.state != "dead":
                kernel.exit_task(thread)

    # ------------------------------------------------------------------ #
    # channel-side data movement (called by SecureChannel / EreborDevice)
    # ------------------------------------------------------------------ #

    def _io_frames(self, npages: int) -> list[int]:
        """Confined frames backing the first ``npages`` of the I/O buffer.

        On a forked sandbox the I/O buffer starts as shared template
        pages; the monitor breaks CoW on the needed pages first, so
        client plaintext only ever lands in private confined frames.
        """
        backing = self.io_vma.backing
        if isinstance(backing, CowBacking):
            npages = min(npages, len(backing.template_frames))
            for page in range(npages):
                va = self.io_vma.start + (page << PAGE_SHIFT)
                self.resolve_cow_fault(self.io_vma, va, True)
            return [backing.private[page] for page in range(npages)]
        return backing.frames

    def install_input(self, plaintext: bytes) -> None:
        """Monitor writes decrypted client data into confined memory."""
        if self.dead:
            raise PolicyViolation(f"sandbox {self.sandbox_id} is dead")
        if self.is_template:
            raise PolicyViolation(
                f"sandbox {self.sandbox_id} is a sealed template; "
                "client data must go to a fork")
        monitor = self.monitor
        pages = max(pages_for(len(plaintext)), 1)
        monitor.clock.charge(pages * Cost.USER_COPY_PER_PAGE, "channel_copy")
        if self.io_vma is not None and plaintext:
            # really place the bytes in the confined I/O frames
            frames = self._io_frames(pages_for(len(plaintext)))
            offset = 0
            for fn in frames:
                if offset >= len(plaintext):
                    break
                chunk = plaintext[offset:offset + PAGE_SIZE]
                monitor.phys.write(fn << PAGE_SHIFT, chunk)
                offset += PAGE_SIZE
        self.input_queue.append(plaintext)
        self.stats["inputs"] += 1
        self.lock()

    def take_input(self) -> bytes | None:
        if not self.input_queue:
            return None
        return self.input_queue.pop(0)

    def push_output(self, data: bytes) -> None:
        pages = max(pages_for(len(data)), 1)
        self.monitor.clock.charge(pages * Cost.USER_COPY_PER_PAGE,
                                  "channel_copy")
        self.output_queue.append(bytes(data))
        self.stats["outputs"] += 1

    def take_output(self) -> bytes | None:
        if not self.output_queue:
            return None
        return self.output_queue.pop(0)

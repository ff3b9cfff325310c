"""The privileged-operation seam between the kernel and the hardware.

Erebor's whole design pivots on one observation: a deprivileged kernel can
do *everything except* the sensitive instructions of Table 2. This module
defines that seam as an interface, :class:`PrivilegedOps`, with the
operations the kernel needs privilege for:

* MMU control — PTE installs/updates/clears and CR writes,
* MSR writes (syscall entry, CET, PKS, UINTR configuration),
* IDT installation and vector updates,
* GHCI — shared-memory conversion, hypercalls, attestation reports,
* SMAP-bracketed user copies (``stac``/``clac``).

:class:`NativeOps` executes them directly at native cycle costs (Table 4's
"Native" column) — this is how an uninstrumented kernel behaves.
Erebor's monitor provides the alternative implementation
(:class:`repro.core.monitor.MonitorOps`) where every call crosses an EMC
gate and passes policy validation. The kernel proper is written once
against the interface, exactly like the paper's instrumented Linux.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from ..hw.cycles import Cost, CycleClock
from ..hw.paging import AddressSpace

if TYPE_CHECKING:
    from ..hw.cpu import Idt
    from ..tdx.module import TdxModule


class PrivilegedOps(ABC):
    """Operations requiring ring-0 sensitive instructions."""

    # --- MMU -----------------------------------------------------------

    @abstractmethod
    def write_pte(self, aspace: AddressSpace, va: int, pte: int) -> None:
        """Install or update a leaf PTE."""

    @abstractmethod
    def clear_pte(self, aspace: AddressSpace, va: int) -> None:
        """Remove a leaf mapping."""

    @abstractmethod
    def write_cr(self, crn: int, value: int) -> None:
        """Write CR0/CR3/CR4."""

    # --- MSRs / IDT ------------------------------------------------------

    @abstractmethod
    def write_msr(self, msr: int, value: int) -> None:
        """Write a model-specific register."""

    @abstractmethod
    def load_idt(self, idt: "Idt") -> None:
        """Activate an interrupt descriptor table (lidt)."""

    @abstractmethod
    def set_idt_vector(self, idt: "Idt", vector: int, handler) -> None:
        """Point an IDT vector at a handler."""

    # --- GHCI -------------------------------------------------------------

    @abstractmethod
    def map_gpa(self, fn_start: int, count: int, *, shared: bool) -> None:
        """Convert guest-physical frames between private and shared."""

    @abstractmethod
    def vmcall(self, subfn: int, payload: object = None,
               count: int = 1) -> object:
        """Synchronous exit to the host VMM; returns its answer.

        ``count`` identical exits issued back to back charge, count and
        expose to the host exactly what ``count`` calls with ``count=1``
        would, and return the last answer; a refused one charges what
        the first of them would.
        """

    @abstractmethod
    def tdreport(self, report_data: bytes):
        """Request a signed attestation report."""

    # --- SMAP user copy ----------------------------------------------------

    @abstractmethod
    def user_copy(self, nbytes: int, *, to_user: bool, task=None,
                  count: int = 1) -> None:
        """Model a copy_{from,to}_user of ``nbytes`` (stac/copy/clac).

        ``task`` identifies whose user memory is touched (defaults to the
        current task); Erebor's monitor refuses copies targeting a locked
        sandbox. ``count`` same-sized copies issued back to back charge
        exactly what ``count`` calls with ``count=1`` would; a refused one
        charges what the first of them would.
        """

    def mmu_housekeeping(self, n: int) -> None:
        """Model ``n`` ancillary MMU updates (A/D bits, TLB bookkeeping).

        The paper measures ~3.3 EMCs per context switch on fault-heavy
        paths: beyond the leaf PTE install, the kernel touches neighbour
        entries. Charged like PTE writes, through whichever privilege
        route this ops object represents.
        """
        raise NotImplementedError

    @abstractmethod
    def verify_dynamic_code(self, blob: bytes, what: str = "module") -> None:
        """Vet dynamically loaded executable code (modules/eBPF/text_poke).

        Natively a no-op beyond loader work; under Erebor the monitor
        byte-scans the blob and refuses sensitive instruction sequences
        before it may become kernel text (claim C2)."""


class NativeOps(PrivilegedOps):
    """Direct hardware access — the unprotected (Native) configuration."""

    def __init__(self, clock: CycleClock, cpu, tdx: "TdxModule | None"):
        self.clock = clock
        self.cpu = cpu
        self.tdx = tdx

    def write_pte(self, aspace, va, pte):
        self.clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")
        self.clock.count("pte_write")
        if pte:
            aspace.set_pte(va, pte)
        else:
            aspace.clear_pte(va)

    def clear_pte(self, aspace, va):
        self.write_pte(aspace, va, 0)

    def write_cr(self, crn, value):
        self.clock.charge(Cost.CR_WRITE_NATIVE, "cr_op")
        self.clock.count("cr_write")
        self.cpu.crs[crn] = value

    def write_msr(self, msr, value):
        self.clock.charge(Cost.WRMSR_SLOW_NATIVE, "msr_op")
        self.clock.count("msr_write")
        self.cpu.msrs[msr] = value

    def load_idt(self, idt):
        self.clock.charge(Cost.LIDT_NATIVE, "idt_op")
        self.clock.count("lidt")
        self.cpu.idt = idt

    def set_idt_vector(self, idt, vector, handler):
        self.clock.charge(Cost.LIDT_NATIVE, "idt_op")
        idt.set_vector(vector, 0, py_handler=handler)

    def map_gpa(self, fn_start, count, *, shared):
        if self.tdx is None:
            return
        self.tdx.guest_map_gpa(fn_start, count, shared=shared)

    def vmcall(self, subfn, payload=None, count=1):
        if self.tdx is None:
            raise RuntimeError("vmcall without a TDX module")
        return self.tdx.guest_vmcall(subfn, payload, count)

    def tdreport(self, report_data):
        if self.tdx is None:
            raise RuntimeError("tdreport without a TDX module")
        return self.tdx.guest_tdreport(report_data)

    def user_copy(self, nbytes, *, to_user, task=None, count=1):
        from ..hw.memory import pages_for
        pages = max(pages_for(nbytes), 1)
        self.clock.charge(count * (Cost.STAC_CLAC_NATIVE
                          + pages * Cost.COPY_PER_PAGE_NATIVE), "user_copy")
        self.clock.count("user_copy", count)

    def mmu_housekeeping(self, n):
        self.clock.charge(n * Cost.PTE_WRITE_NATIVE, "mmu_op")
        self.clock.count("pte_write", n)

    def verify_dynamic_code(self, blob, what="module"):
        # native kernels just relocate and run whatever they are given
        self.clock.charge(4 * len(blob) // 64, "module_load")
        self.clock.count("dynamic_code_load")

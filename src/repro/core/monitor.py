"""EREBOR-MONITOR: the privileged half of the virtualized kernel mode.

The monitor owns everything Table 2 lists: the MMU configuration interface
(through :class:`~repro.core.nested_mmu.NestedMmu`), control registers,
MSRs, the IDT, and the GHCI. The deprivileged kernel reaches it only
through EMCs; :class:`MonitorOps` is the kernel-facing implementation of
:class:`~repro.kernel.ops.PrivilegedOps` where every call crosses the gate
(charging the calibrated 1224-cycle round trip plus per-class validation)
and passes the policy checks of :mod:`repro.core.policy`.

The monitor also carries the sandbox-facing services (creation, memory
declaration, locking, the secure channel) — those live in
:mod:`repro.core.sandbox` and :mod:`repro.core.channel` and are reached
via the monitor instance held here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

from ..hw import regs
from ..hw.cycles import Cost
from ..hw.isa import scan_for_sensitive
from ..hw.memory import FramePool, pages_for
from ..kernel.image import SelfImage
from ..kernel.kernel import GuestKernel
from ..kernel.ops import PrivilegedOps
from ..kernel.process import sandbox_owner
from ..obs.metrics import HandleCache
from ..obs.ring import RingBuffer
from ..tdx.module import VMCALL_CPUID
from .nested_mmu import NestedMmu
from .policy import (
    PolicyViolation,
    validate_cr_write,
    validate_ghci,
    validate_msr_write,
)

if TYPE_CHECKING:
    from ..vm import CvmMachine
    from .sandbox import Sandbox

#: gate kind → cached "emc:<kind>" span name (the EMC path runs tens of
#: thousands of times per fleet run; kinds are a small fixed vocabulary)
_EMC_SPAN_NAMES: dict[str, str] = {}


class BootVerificationError(Exception):
    """Stage-2 boot rejected the kernel image (audited, never loaded)."""


#: kernel pass name → the monitor attribute keeping its latest report
_KERNEL_REPORT_ATTRS = {"cfg": "kernel_verifier_report",
                        "dataflow": "kernel_dataflow_report"}


@dataclass
class EreborFeatures:
    """Ablation switches matching the paper's evaluation settings (§9).

    ``mmu_isolation`` and ``exit_protection`` decompose Erebor-full into
    the Erebor-LibOS-MMU and Erebor-LibOS-Exit configurations; the
    microarchitectural disturbance model can be disabled for direct-cost
    microbenchmarks. ``cfg_verifier`` gates the stage-2 CFG pass
    (:mod:`repro.analysis`) — off reproduces the paper's scan-only boot.
    ``dataflow_verifier`` gates the stage-3 abstract-interpretation plane
    (:mod:`repro.analysis.absint`, checks V8–V10) layered on the CFG
    pass; it is inert unless ``cfg_verifier`` is also on.
    """

    mmu_isolation: bool = True
    exit_protection: bool = True
    uarch_model: bool = True
    cfg_verifier: bool = True
    dataflow_verifier: bool = True


class MonitorStats:
    """Read-only monitor statistics derived from the clock's event ledger.

    Historically this was an independently-bumped dataclass, which let it
    drift from the :class:`~repro.hw.cycles.CycleClock` event counters the
    benchmark harness reports (``charge_emc`` bumped both). There is now a
    single source of truth — the clock's event ledger — and this class is
    a naming view over it, so the two can never diverge (test-enforced).
    """

    __slots__ = ("_clock",)

    #: attribute → clock event name
    _FIELDS = {
        "emc_calls": "emc",
        "policy_denials": "policy_denial",
        "sandboxes_created": "sandbox_created",
        "sandboxes_killed": "sandbox_killed",
        "verified_code_blobs": "verified_code_blob",
    }

    def __init__(self, clock):
        self._clock = clock

    def __getattr__(self, name: str) -> int:
        if name not in self._FIELDS:
            raise AttributeError(name)
        return self._clock.events[self._FIELDS[name]]

    def as_dict(self) -> dict:
        return {attr: getattr(self, attr) for attr in self._FIELDS}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"MonitorStats({body})"


# The audit-chain primitives live in the pure, simulator-free
# :mod:`repro.core.audit` so the offline certificate verifier can load
# them without pulling in the hardware model; re-exported here because
# the monitor is their historical home and the in-CVM call sites (and
# tests) import them from this module.
from .audit import (  # noqa: E402  (grouped with the audit facade)
    AUDIT_GENESIS,
    AuditEvent,
    ChainVerdict,
    audit_chain_digest,
    verify_audit_chain,
    verify_audit_segment,
)

__all__ = [
    "AUDIT_GENESIS",
    "AuditEvent",
    "BootVerificationError",
    "ChainVerdict",
    "EreborFeatures",
    "EreborMonitor",
    "MonitorOps",
    "MonitorStats",
    "audit_chain_digest",
    "verify_audit_chain",
    "verify_audit_segment",
]


class EreborMonitor:
    """One monitor instance governing one CVM."""

    #: size of the CMA-style reserved pool backing confined memory
    CMA_BYTES_DEFAULT = 512 * 1024 * 1024
    #: size of the device-shared I/O window (the only shareable region)
    SHARED_IO_BYTES = 16 * 1024 * 1024
    #: audit-log ring capacity (events); oldest entries drop beyond this
    AUDIT_LOG_CAPACITY = 4096

    def __init__(self, machine: "CvmMachine",
                 features: EreborFeatures | None = None,
                 *, cma_bytes: int | None = None):
        self.machine = machine
        self.clock = machine.clock
        self.phys = machine.phys
        self.cpu = machine.cpu
        self.tdx = machine.tdx
        self.features = features or EreborFeatures()
        self.mitigations = None   # optional §12 engine (arm_mitigations)
        from .shadow_stacks import ShadowStackManager
        self.sst_manager = ShadowStackManager(self)
        self.vmmu = NestedMmu(self.phys, self.clock)
        self.ops = MonitorOps(self)
        self.stats = MonitorStats(self.clock)
        #: bounded log of security-relevant decisions (an operator /
        #: auditor aid; never consulted by enforcement itself). A ring:
        #: once full the oldest events are overwritten and
        #: ``audit_log.dropped`` counts what was lost.
        self.audit_log: RingBuffer[AuditEvent] = RingBuffer(
            self.AUDIT_LOG_CAPACITY)
        #: tamper-evident chain state: head digest + next sequence number.
        #: The head is mirrored onto ``clock.audit_head`` so fleet reports
        #: and obs bundles can carry it without a monitor reference.
        self.audit_head: str = AUDIT_GENESIS
        self.audit_seq: int = 0
        self.kernel: GuestKernel | None = None
        self.kernel_syscall_entry: int | None = None
        #: the latest CFG (V0–V7) and dataflow (V8–V10) pass reports, None
        #: until the pass runs; the dataflow StaticBudget feeds admission
        self.kernel_verifier_report = None
        self.kernel_dataflow_report = None
        self.sandboxes: dict[int, "Sandbox"] = {}
        self._next_sandbox_id = 1
        #: secure channels attached so far; seeds each one's default key RNG
        self.channels_opened = 0
        self._cpuid_cache: tuple | None = None
        #: kind → pre-resolved ``erebor_emc_cycles`` histogram handle
        self._emc_handles = HandleCache()
        #: free confined frames, taken from the left in allocation order
        self._cma_pool = FramePool(self.phys, range(0), "cma")
        #: the device-shared I/O window's frames
        self._shared_io = range(0)
        cma = cma_bytes if cma_bytes is not None else self.CMA_BYTES_DEFAULT
        self._cma_bytes = cma
        self.installed = False

    # ------------------------------------------------------------------ #
    # installation (stage 1: only firmware + monitor are in the TD)
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Claim monitor memory, arm protections, reserve regions."""
        # monitor's own frames (code/data/stacks model)
        self.phys.alloc_frames(64, "monitor")
        # CMA-style reserved pool for sandbox confined memory (pinned)
        self._cma_pool = FramePool(self.phys, self.phys.alloc_range(
            pages_for(self._cma_bytes), "cma"), "cma")
        # the only region ever convertible to shared (device I/O window)
        self._shared_io = self.phys.alloc_range(
            pages_for(self.SHARED_IO_BYTES), "shm-io")
        # privileged-mode CPU state: PKS/CET/SMEP/SMAP on, kernel PKRS
        self.cpu.crs[4] |= (regs.CR4_SMEP | regs.CR4_SMAP | regs.CR4_PKS
                            | regs.CR4_CET)
        self.cpu.msrs[regs.IA32_S_CET] = (regs.S_CET_ENDBR_EN
                                          | regs.S_CET_SH_STK_EN)
        from .gates import PKRS_KERNEL
        self.cpu.msrs[regs.IA32_PKRS] = PKRS_KERNEL
        self.installed = True

    # ------------------------------------------------------------------ #
    # stage 2: kernel verification and load
    # ------------------------------------------------------------------ #

    def _reject(self, audit: str, trigger: str, error: str) -> NoReturn:
        """The one stage-2 reject path: audit, fire the trigger, raise."""
        self.audit("verify", f"REJECTED {audit}")
        self.clock.tracer.trigger("verify_reject", trigger)
        raise BootVerificationError(error)

    def verify_code(self, blob: bytes, what: str = "code") -> None:
        """Byte-scan executable bytes for sensitive sequences (§5.1)."""
        with self.clock.tracer.span("verify:code", "monitor",
                                    what=what, size=len(blob)):
            self.clock.charge(12 * len(blob) // 64 + Cost.FENCE, "verify")
        hits = scan_for_sensitive(blob)
        self.clock.count("verified_code_blob")
        if hits:
            offset, op = hits[0]
            where = f"{what}: {op} at {offset:#x}"
            self._reject(where, where,
                         f"{what}: sensitive instruction {op!r} at byte "
                         f"offset {offset:#x} (+{len(hits) - 1} more)")
        self.audit("verify", f"accepted {what} ({len(blob)} bytes)")

    def _verify_pass(self, image: SelfImage, kernel_pass, report) -> None:
        """Book one :mod:`repro.analysis.pipeline` pass over the kernel.

        Charges the pass's calibrated cycles, audits the verdict and — on
        success — extends the report digest into RTMR[3], so the quote
        distinguishes scan-only, CFG-verified and dataflow-proven boots.
        """
        from ..tdx.attestation import KERNEL_CFG_RTMR_INDEX
        name = kernel_pass.name
        with self.clock.tracer.span(f"verify:{name}", "monitor",
                                    image=image.name, **report.span_args()):
            self.clock.charge(kernel_pass.cycles(report), "verify")
        self.clock.count(f"{name}_verified_image")
        setattr(self, _KERNEL_REPORT_ATTRS[name], report)
        digest = report.digest()
        setattr(self.clock, f"{name}_report_digest", digest)
        if not report.ok:
            detail = report.first_failure.detail
            failed = ", ".join(report.failed_checks)
            verdict = f"{image.name} {kernel_pass.label} [{failed}]"
            self._reject(f"{verdict}: {detail}", verdict,
                         f"kernel {image.name}: {kernel_pass.label} "
                         f"verification failed [{failed}] — {detail}")
        self.audit("verify", f"{kernel_pass.verb} {image.name} "
                   f"{report.summary()} digest {digest[:16]}")
        if self.tdx is not None:
            self.tdx.measurement.extend_rtmr(KERNEL_CFG_RTMR_INDEX,
                                             digest.encode())

    def verify_and_load_kernel(self, image_blob: bytes) -> GuestKernel:
        """Stage-2 boot: scan + verify, then boot a deprivileged kernel."""
        if not self.installed:
            raise RuntimeError("monitor not installed (stage 1 incomplete)")
        try:
            image = SelfImage.deserialize(image_blob)
        except ValueError as exc:
            what = f"kernel image: {exc}"
            self._reject(what, what, what)
        text = next((s for s in image.executable_sections()
                     if s.name == ".text"), None)
        if text is None:
            what = f"kernel {image.name}: no executable .text section"
            self._reject(what, what, what)
        for section in image.executable_sections():
            self.verify_code(section.data, what=f"kernel {section.name}")
        if self.features.cfg_verifier:
            from ..analysis.pipeline import verify_kernel
            for kernel_pass, report in verify_kernel(
                    image, dataflow=self.features.dataflow_verifier):
                self._verify_pass(image, kernel_pass, report)
        # mark kernel text frames so W^X policy can identify them
        text_frames = self.phys.alloc_frames(
            max(pages_for(len(text.data)), 1), "ktext")
        self.phys.write(text_frames[0] << 12, text.data[:4096])

        from .exits import MonitorExitPath
        kernel = GuestKernel(self.phys, self.clock, self.cpu, self.tdx,
                             ops=self.ops)
        kernel.exit_path = MonitorExitPath(self)
        self.kernel = kernel
        self.vmmu.register_aspace(kernel.kernel_aspace)
        kernel.boot()
        self.machine.vmm.interrupt_sink = lambda vector: kernel.pump()
        self.machine.kernel = kernel
        return kernel

    # ------------------------------------------------------------------ #
    # EMC accounting
    # ------------------------------------------------------------------ #

    def charge_emc(self, validation_cycles: int, kind: str = "nop") -> None:
        self.charge_emc_batch(validation_cycles, kind, 1)

    def _emc_charges(self, clock, validation_cycles: int, kind: str,
                     count: int) -> None:
        clock.charge(count * Cost.EMC_ROUND_TRIP, "emc")
        # validation rides inside the emc span rather than a nested
        # span of its own: it is a single charge, its cost stays
        # separately visible via the ``emc_validate`` ledger tag and
        # the per-kind EMC-cycles histogram, and dropping the extra
        # record cuts a third of the armed run's span volume
        clock.charge(count * validation_cycles, "emc_validate")
        kernel = self.kernel
        clock.count(("emc", kind,
                     sandbox_owner(kernel.current if kernel else None)), count)
        if self.features.uarch_model:
            clock.charge(count * Cost.UARCH_PER_EMC, "uarch")

    def charge_emc_batch(self, validation_cycles: int, kind: str = "nop",
                         count: int = 1) -> None:
        """Charge ``count`` identical EMC round trips as one gate burst.

        Bit-exact with ``count`` sequential :meth:`charge_emc` calls —
        same cycle totals per tag, same event counts, same per-call
        histogram samples (each round trip's delta is the burst delta
        divided by ``count``, exactly) — but pays one span pair and one
        metric write on the host. Burst call sites must not interleave
        observers (``pump``/tracer reads) between the constituent calls,
        which none of the batched paths do.
        """
        clock = self.clock
        emc_start = clock.cycles
        tracer = clock.tracer
        if tracer.enabled:
            span_name = _EMC_SPAN_NAMES.get(kind)
            if span_name is None:
                span_name = _EMC_SPAN_NAMES[kind] = f"emc:{kind}"
            if count == 1:
                with tracer.span("gate", "gate"), \
                        tracer.span(span_name, "emc"):
                    self._emc_charges(clock, validation_cycles, kind, count)
            else:
                with tracer.span("gate", "gate"), \
                        tracer.span(span_name, "emc", calls=count):
                    self._emc_charges(clock, validation_cycles, kind, count)
        else:
            self._emc_charges(clock, validation_cycles, kind, count)
        metrics = clock.metrics
        if metrics.enabled:
            # hottest metric path in the tree: resolve the series once
            # per kind and write through a cached handle
            emc_cycles = self._emc_handles.get(metrics, kind)
            if emc_cycles is None:
                emc_cycles = self._emc_handles.put(
                    kind, metrics.histogram_handle("erebor_emc_cycles",
                                                   cls=kind))
            if count == 1:
                emc_cycles.observe(clock.cycles - emc_start)
            else:
                emc_cycles.observe_n((clock.cycles - emc_start) // count,
                                     count)

    def audit(self, kind: str, detail: str) -> None:
        cycle = self.clock.cycles
        seq = self.audit_seq
        digest = audit_chain_digest(self.audit_head, seq, cycle, kind,
                                    detail)
        self.audit_log.append(AuditEvent(cycle, kind, detail, seq,
                                         self.audit_head, digest))
        self.audit_head = digest
        self.audit_seq = seq + 1
        self.clock.audit_head = digest
        self.clock.tracer.audit(kind, detail, cycle=cycle)

    def verify_audit_chain(self) -> ChainVerdict:
        """Verify the live ring against the monitor's own head digest."""
        return verify_audit_chain(self.audit_log, head=self.audit_head)

    def _deny(self, exc: PolicyViolation) -> PolicyViolation:
        self.clock.count("policy_denial")
        self.audit("deny", str(exc))
        self.clock.tracer.trigger("policy_deny", str(exc))
        return exc

    # ------------------------------------------------------------------ #
    # monitor-internal privileged services
    # ------------------------------------------------------------------ #

    def attest(self, report_data: bytes):
        """Generate a quote (monitor-only; C5). Charges the EMC-gated
        GHCI path of Table 4 (128081 cycles end to end).

        Only available in a TD guest: the artifact's default normal-VM
        setting (§A.3) runs all of Erebor's mechanisms but has no
        hardware to attest with — its channel uses the DebugFS emulation
        instead.
        """
        if self.tdx is None:
            raise PolicyViolation(
                "attestation requires a TD guest; the normal-VM setting "
                "has no TDX module (use the DebugFS channel emulation)")
        self.charge_emc(Cost.VALIDATE_GHCI, kind="ghci")
        self.audit("attest", f"quote over {len(report_data)}B report data")
        return self.tdx.guest_tdreport(report_data)

    def arm_mitigations(self, config) -> None:
        """Enable the optional side-channel mitigation engine (§12)."""
        from .mitigations import SideChannelMitigations
        self.mitigations = SideChannelMitigations(self.clock, config)

    def mitigation_router(self):
        """The per-tenant §12 router, installing one on first use.

        An already-armed fleet-wide engine (``arm_mitigations``) is kept
        as the router's default, so upgrading to per-tenant routing never
        weakens an existing policy.
        """
        from .mitigations import TenantMitigationRouter
        if not isinstance(self.mitigations, TenantMitigationRouter):
            router = TenantMitigationRouter(self.clock,
                                            default=self.mitigations)
            self.mitigations = router
        return self.mitigations

    def emulated_cpuid(self) -> tuple:
        """Serve cpuid from the monitor's host-filled cache (§6.2)."""
        if self._cpuid_cache is None:
            self._cpuid_cache = self.tdx.guest_vmcall(VMCALL_CPUID)
        self.clock.charge(Cost.CPUID_EMULATED, "cpuid")
        return self._cpuid_cache

    def take_cma_frames(self, count: int, owner: str) -> list[int]:
        if count > len(self._cma_pool):
            raise MemoryError(
                f"confined pool exhausted (want {count}, "
                f"have {len(self._cma_pool)})")
        return self._cma_pool.take(count, owner)

    def return_cma_frames(self, frames: list[int]) -> None:
        self._cma_pool.give(frames)

    # ------------------------------------------------------------------ #
    # sandbox facade (implementation in sandbox.py / channel.py)
    # ------------------------------------------------------------------ #

    def seal_as_template(self, sandbox: "Sandbox", name: str) -> list[int]:
        """Freeze a pre-initialized sandbox into a named fork template.

        The sandbox must still be pre-lock (it has never held client
        data, which is what makes read-only sharing of its image safe).
        Its confined frames are re-classified as template frames: removed
        from the single-mapping confined registry, flipped read-only in
        the template's own page table (one batched EMC, like common-region
        sealing), and registered so no address space can ever map them
        writable again. Returns the frame list — the golden image forked
        sandboxes will map copy-on-write.
        """
        from ..kernel.process import PROT_WRITE
        if sandbox.locked or sandbox.dead:
            raise self._deny(PolicyViolation(
                f"sandbox {sandbox.sandbox_id} has held client data; "
                "only pre-lock sandboxes can become templates"))
        if any(t == name for t in self.vmmu.template_frames.values()):
            raise self._deny(PolicyViolation(
                f"template {name!r} already exists"))
        self.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
        frames = list(sandbox.confined_frames)
        rewritten = self.vmmu.seal_ranges(
            sandbox.task.aspace,
            [(vma.start, vma.end) for vma in sandbox.confined_vmas])
        for vma in sandbox.confined_vmas:
            vma.prot &= ~PROT_WRITE
        self.vmmu.release_confined(sandbox.sandbox_id)
        self.vmmu.adopt_template(name, frames)
        sandbox.confined_frames = []
        sandbox.state = "template"
        self.clock.count(("template_sealed", name))
        self.clock.tracer.event("fleet:template_seal", "fleet",
                                template=name, sandbox=sandbox.sandbox_id,
                                frames=len(frames))
        self.audit("sandbox", f"sealed #{sandbox.sandbox_id} as template "
                   f"{name!r} ({len(frames)} frames, {rewritten} PTEs "
                   "flipped read-only)")
        return frames

    def create_sandbox(self, name: str, *, confined_budget: int,
                       threads: int = 1) -> "Sandbox":
        from .sandbox import Sandbox
        if self.kernel is None:
            raise RuntimeError("no kernel loaded")
        sandbox_id = self._next_sandbox_id
        self._next_sandbox_id += 1
        sandbox = Sandbox(self, sandbox_id, name,
                          confined_budget=confined_budget, threads=threads)
        self.sandboxes[sandbox_id] = sandbox
        self.clock.count("sandbox_created")
        self.clock.tracer.event("sandbox:create", "sandbox",
                                sandbox=sandbox_id, name=name)
        self.audit("sandbox", f"created #{sandbox_id} {name!r} "
                   f"(budget {confined_budget >> 20} MiB, {threads} threads)")
        return sandbox


class MonitorOps(PrivilegedOps):
    """The kernel's view of privilege: every call is an EMC."""

    def __init__(self, monitor: EreborMonitor):
        self.monitor = monitor
        self.clock = monitor.clock

    # --- MMU -------------------------------------------------------------

    def write_pte(self, aspace, va, pte):
        vmmu = self.monitor.vmmu
        if aspace.root_fn not in vmmu.registered_roots:
            # fresh process page table: monitor validates and adopts it
            vmmu.register_aspace(aspace)
        if not self.monitor.features.mmu_isolation:
            # ablation (Erebor-LibOS-Exit): MMU path behaves natively
            self.clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")
            self.clock.count("pte_write")
            if pte:
                aspace.set_pte(va, pte)
            else:
                aspace.clear_pte(va)
            return
        self.monitor.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
        try:
            vmmu.write_pte(aspace, va, pte)
        except PolicyViolation as exc:
            raise self.monitor._deny(exc)

    def clear_pte(self, aspace, va):
        self.write_pte(aspace, va, 0)

    def mmu_housekeeping(self, n):
        if not self.monitor.features.mmu_isolation:
            self.clock.charge(n * Cost.PTE_WRITE_NATIVE, "mmu_op")
            self.clock.count("pte_write", n)
            return
        # one gate burst for the n validations: identical totals, tags,
        # events and histogram samples as n sequential round trips
        self.monitor.charge_emc_batch(Cost.VALIDATE_MMU, kind="mmu", count=n)
        self.clock.charge(n * Cost.PTE_WRITE_NATIVE, "mmu_op")
        self.clock.count("pte_write", n)

    # --- CR / MSR / IDT ----------------------------------------------------

    def write_cr(self, crn, value):
        self.monitor.charge_emc(Cost.VALIDATE_CR, kind="cr")
        try:
            validate_cr_write(crn, value)
        except PolicyViolation as exc:
            raise self.monitor._deny(exc)
        self.clock.charge(Cost.CR_WRITE_NATIVE, "cr_op")
        self.clock.count("cr_write")
        self.monitor.cpu.crs[crn] = value

    def write_msr(self, msr, value):
        self.monitor.charge_emc(Cost.VALIDATE_MSR, kind="msr")
        try:
            validate_msr_write(msr, value)
        except PolicyViolation as exc:
            if msr == regs.IA32_LSTAR:
                # the kernel registers its entry; the monitor interposes
                self.monitor.kernel_syscall_entry = value
                self.clock.charge(Cost.WRMSR_SLOW_NATIVE, "msr_op")
                return
            raise self.monitor._deny(exc)
        self.clock.charge(Cost.WRMSR_SLOW_NATIVE, "msr_op")
        self.clock.count("msr_write")
        self.monitor.cpu.msrs[msr] = value

    def load_idt(self, idt):
        self.monitor.charge_emc(Cost.IDT_MONITOR_UPDATE, kind="idt")
        self.clock.count("lidt")
        self.monitor.cpu.idt = idt

    def set_idt_vector(self, idt, vector, handler):
        self.monitor.charge_emc(Cost.IDT_MONITOR_UPDATE, kind="idt")
        idt.set_vector(vector, 0, py_handler=handler)

    # --- GHCI ---------------------------------------------------------------

    def map_gpa(self, fn_start, count, *, shared):
        self.monitor.charge_emc(Cost.VALIDATE_GHCI, kind="ghci")
        try:
            validate_ghci("map_gpa")
            if shared:
                window = self.monitor._shared_io
                for fn in range(fn_start, fn_start + count):
                    if fn not in window:
                        raise PolicyViolation(
                            f"frame {fn:#x} outside the shared-I/O window "
                            "cannot be converted to shared")
        except PolicyViolation as exc:
            raise self.monitor._deny(exc)
        if self.monitor.tdx is not None:
            self.monitor.tdx.guest_map_gpa(fn_start, count, shared=shared)

    def vmcall(self, subfn, payload=None, count=1):
        """``count`` hypercalls as one gate burst and one GHCI exit run."""
        monitor = self.monitor
        try:
            validate_ghci("vmcall_io")
        except PolicyViolation as exc:
            # the first call's gate, then its denial
            monitor.charge_emc(Cost.VALIDATE_GHCI, kind="ghci")
            raise monitor._deny(exc)
        monitor.charge_emc_batch(Cost.VALIDATE_GHCI, kind="ghci",
                                 count=count)
        if monitor.tdx is None:
            return None
        return monitor.tdx.guest_vmcall(subfn, payload, count)

    def tdreport(self, report_data):
        raise self.monitor._deny(PolicyViolation(
            "attestation reports are monitor-only (C5); the kernel cannot "
            "request tdreport"))

    # --- dynamic code (modules / eBPF / text_poke) ------------------------

    def verify_dynamic_code(self, blob, what="module"):
        """The VERIFY_CODE EMC: scan before anything becomes kernel text."""
        self.monitor.charge_emc(Cost.VALIDATE_MMU, kind="verify")
        self.clock.count("dynamic_code_load")
        try:
            self.monitor.verify_code(blob, what=what)
        except BootVerificationError as exc:
            raise self.monitor._deny(PolicyViolation(str(exc)))

    # --- SMAP user copy -------------------------------------------------------

    def user_copy(self, nbytes, *, to_user, task=None, count=1):
        """``count`` same-sized user copies as one gate burst."""
        pages = max(pages_for(nbytes), 1)
        monitor = self.monitor
        if not monitor.features.mmu_isolation:
            self.clock.charge(count * (Cost.STAC_CLAC_NATIVE
                              + pages * Cost.COPY_PER_PAGE_NATIVE),
                              "user_copy")
            self.clock.count("user_copy", count)
            return
        kernel = monitor.kernel
        if task is None:
            task = kernel.current if kernel else None
        if (task is not None and task.kind == "sandbox"
                and task.sandbox is not None and task.sandbox.locked):
            # the first copy's gate, then its denial
            monitor.charge_emc(Cost.VALIDATE_SMAP, kind="smap")
            raise monitor._deny(PolicyViolation(
                f"kernel user-copy into locked sandbox "
                f"{task.sandbox.sandbox_id} refused (C6)"))
        monitor.charge_emc_batch(Cost.VALIDATE_SMAP, kind="smap",
                                 count=count)
        self.clock.charge(count * (Cost.STAC_CLAC_NATIVE
                          + pages * Cost.USER_COPY_PER_PAGE), "user_copy")
        self.clock.count("user_copy", count)

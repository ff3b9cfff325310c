"""Workload runner: one (workload × setting) execution with full accounting.

The five settings reproduce the paper's §9 evaluation matrix:

========  =====================================================
native    unmodified program on a native CVM kernel
libos     Erebor-LibOS-only: Gramine-style emulation, no monitor
mmu       Erebor-LibOS-MMU: + monitor memory isolation
exit      Erebor-LibOS-Exit: + monitor exit protection
erebor    the full system (MMU + exit + channel)
========  =====================================================

Every run reports simulated init/runtime seconds plus the Table 6
counters (page-fault, timer, #VE, sandbox-exit and EMC rates; confined
and common memory) measured from the shared cycle clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.base import Workload, workload as make_workload
from ..apps.runtime import LibOsRuntime, NativeRuntime
from ..client import RemoteClient
from ..core.boot import EreborSystem, erebor_boot, published_measurement
from ..core.channel import SecureChannel, UntrustedProxy
from ..core.monitor import EreborFeatures
from ..hw.memory import PAGE_SIZE
from ..kernel.kernel import GuestKernel
from ..libos.libos import DEBUGFS_IN, LibOs
from ..vm import CvmMachine, MachineConfig, MIB

SETTINGS = ("native", "libos", "mmu", "exit", "erebor")

#: the paper's five §9 programs (Table 5), in Fig. 9 / Table 6 row order
WORKLOADS = ("llama.cpp", "yolo", "drugbank", "graphchi", "unicorn")

_FEATURES = {
    "mmu": EreborFeatures(mmu_isolation=True, exit_protection=False),
    "exit": EreborFeatures(mmu_isolation=False, exit_protection=True),
    "erebor": EreborFeatures(mmu_isolation=True, exit_protection=True),
}


@dataclass
class RunResult:
    """Everything one run produced."""

    workload: str
    setting: str
    init_seconds: float
    run_seconds: float
    output: bytes
    events: dict = field(default_factory=dict)
    by_tag: dict = field(default_factory=dict)
    confined_bytes: int = 0
    common_bytes: int = 0

    @property
    def run_cycles(self) -> int:
        return round(self.run_seconds * 2_100_000_000)

    def rate(self, event: str) -> float:
        if self.run_seconds <= 0:
            return 0.0
        return self.events.get(event, 0) / self.run_seconds

    @property
    def total_exit_rate(self) -> float:
        return (self.rate("page_fault") + self.rate("timer_interrupt")
                + self.rate("ve"))


class WorkloadRunner:
    """Builds a machine per run and drives one client session."""

    #: guest memory and the monitor's CMA reservation of every run
    MEMORY_BYTES = 768 * MIB
    CMA_BYTES = 256 * MIB

    def __init__(self, *, scale: float = 0.25, seed: int = 2025,
                 instrument=None):
        self.scale = scale
        self.seed = seed
        #: optional hook called with each freshly built machine before any
        #: cycle is charged — e.g. repro.obs attaching a tracer at cycle 0
        self.instrument = instrument

    # ------------------------------------------------------------------ #

    def run(self, name: str, setting: str) -> RunResult:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}; pick from {SETTINGS}")
        work = make_workload(name, seed=self.seed, scale=self.scale)
        if setting in _FEATURES:
            return self._run_erebor(work, _FEATURES[setting], setting)
        return self._run_plain(work, setting)

    def run_all_settings(self, name: str) -> dict[str, RunResult]:
        return {setting: self.run(name, setting) for setting in SETTINGS}

    def run_matrix(self) -> dict[str, dict[str, RunResult]]:
        """``{workload: {setting: RunResult}}`` over the §9 matrix."""
        return {name: self.run_all_settings(name) for name in WORKLOADS}

    # ------------------------------------------------------------------ #
    # shared pieces
    # ------------------------------------------------------------------ #

    def _machine(self) -> CvmMachine:
        machine = CvmMachine(MachineConfig(memory_bytes=self.MEMORY_BYTES,
                                           seed=self.seed))
        if self.instrument is not None:
            self.instrument(machine)
        return machine

    def _install_activity_hooks(self, kernel: GuestKernel, work: Workload,
                                rt, system_task) -> None:
        """Background system activity + common-page reclaim, per tick.

        Identical *logical* activity runs under every setting; the cost
        difference between settings comes entirely from whether these
        privileged operations route natively or through EMC gates.
        """
        from ..kernel.process import PROT_READ, PROT_WRITE
        profile = work.profile
        vma_map = getattr(rt, "_common_vmas", None)
        if vma_map is None:
            vma_map = getattr(getattr(rt, "libos", None), "common_vmas", {})
        common_vmas = list(vma_map.values())
        stride_pages = max(profile.common_touch_stride >> 12, 1)
        # a 4 MiB churn arena the system task cycles through (page-cache /
        # proxy buffer turnover): steady-state background demand faults
        churn_vma = kernel.mmap(system_task, 4 * MIB, PROT_READ | PROT_WRITE)
        churn_pages = churn_vma.length >> 12
        state = {"reclaim": 0, "churn": 0, "fault_debt": 0.0, "ve_debt": 0.0}

        def hook():
            if profile.bg_mmu_ops_per_tick:
                kernel.ops.mmu_housekeeping(profile.bg_mmu_ops_per_tick)
            if profile.bg_copy_ops_per_tick:
                # one gate burst for the tick's copies (bit-exact with
                # the per-call loop)
                kernel.ops.user_copy(PAGE_SIZE, to_user=True,
                                     task=system_task,
                                     count=profile.bg_copy_ops_per_tick)
            # clock-hand reclaim over the app's streaming grid: pages the
            # app will definitely re-touch, so evictions become refaults
            for vma in common_vmas:
                grid = (vma.length >> 12) // stride_pages
                if not grid:
                    continue
                for _ in range(profile.reclaim_pages_per_tick):
                    slot = state["reclaim"] % grid
                    state["reclaim"] += 1
                    va = vma.start + slot * stride_pages * PAGE_SIZE
                    if rt.task.aspace.get_pte(va) & 1:
                        kernel.ops.clear_pte(rt.task.aspace, va)
            # background demand faults (system task churn)
            state["fault_debt"] += profile.bg_faults_per_tick
            while state["fault_debt"] >= 1.0:
                state["fault_debt"] -= 1.0
                va = churn_vma.start + (state["churn"] % churn_pages) * PAGE_SIZE
                state["churn"] += 1
                if system_task.aspace.get_pte(va) & 1:
                    kernel.ops.clear_pte(system_task.aspace, va)
                kernel.handle_page_fault(system_task, va, True)
            # device notification #VE (virtio doorbells)
            state["ve_debt"] += profile.bg_ve_per_tick
            while state["ve_debt"] >= 1.0:
                state["ve_debt"] -= 1.0
                kernel.simulate_device_ve()

        kernel.tick_hooks.append(hook)

    def _init_common_content(self, kernel: GuestKernel, rt, work: Workload) -> None:
        """The initializer populates shared artifacts (model/database)."""
        for spec in work.profile.common:
            vma = (getattr(rt, "_common_vmas", None)
                   or rt.libos.common_vmas)[spec.name]
            write = bool(vma.prot & 0x2)
            kernel.touch_pages(rt.task, vma.start, vma.length, write=write)

    # ------------------------------------------------------------------ #
    # native and LibOS-only: no monitor
    # ------------------------------------------------------------------ #

    def _run_plain(self, work: Workload, setting: str) -> RunResult:
        machine = self._machine()
        kernel = machine.boot_native_kernel()
        system_task = kernel.spawn("systemd")
        manifest = work.manifest()
        t0 = machine.clock.snapshot()
        if setting == "native":
            rt = NativeRuntime(kernel, work.name, threads=manifest.threads,
                               common=manifest.common)
            heap_va = rt.malloc(manifest.heap_bytes)
            rt.touch_range(heap_va, manifest.heap_bytes, write=True)
        else:
            rt = LibOsRuntime(LibOs.boot_plain(kernel, manifest))
        self._init_common_content(kernel, rt, work)
        rt.compute(work.profile.init_compute_cycles)
        t1 = machine.clock.snapshot()

        self._install_activity_hooks(kernel, work, rt, system_task)
        request = work.default_request()
        kernel.vfs.lookup(DEBUGFS_IN).write_at(0, request)
        got = rt.recv_input()
        output = work.serve(rt, got or request)

        delta = machine.clock.since(t1)
        return RunResult(work.name, setting,
                         init_seconds=machine.clock.since(t0).seconds
                         - delta.seconds,
                         run_seconds=delta.seconds, output=output,
                         events=dict(delta.events), by_tag=dict(delta.by_tag),
                         confined_bytes=manifest.heap_bytes,
                         common_bytes=sum(s.size for s in manifest.common))

    # ------------------------------------------------------------------ #
    # Erebor (full + ablations)
    # ------------------------------------------------------------------ #

    def _run_erebor(self, work: Workload, features: EreborFeatures,
                    setting: str) -> RunResult:
        machine = self._machine()
        system = erebor_boot(machine, features=features,
                             cma_bytes=self.CMA_BYTES)
        kernel = system.kernel
        system_task = kernel.spawn("systemd")
        manifest = work.manifest()

        t0 = machine.clock.snapshot()
        libos = LibOs.boot_sandboxed(
            system, manifest,
            confined_budget=manifest.heap_bytes + 2 * MIB)
        rt = LibOsRuntime(libos)
        self._init_common_content(kernel, rt, work)
        rt.compute(work.profile.init_compute_cycles)
        t1 = machine.clock.snapshot()

        self._install_activity_hooks(kernel, work, rt, system_task)
        proxy = UntrustedProxy(system.monitor)
        channel = SecureChannel(system.monitor, libos.sandbox)
        client = RemoteClient(machine.authority, published_measurement(),
                              seed=self.seed)
        client.connect(proxy, channel)
        client.request(proxy, channel, work.default_request())

        run_start = machine.clock.snapshot()
        kernel.current = libos.task
        request = rt.recv_input()
        output = work.serve(rt, request)
        result_blob = client.fetch_result(proxy, channel)
        assert result_blob == output

        delta = machine.clock.since(run_start)
        return RunResult(work.name, setting,
                         init_seconds=machine.clock.since(t0).seconds
                         - machine.clock.since(t1).seconds,
                         run_seconds=delta.seconds, output=output,
                         events=dict(delta.events), by_tag=dict(delta.by_tag),
                         confined_bytes=libos.sandbox.confined_bytes,
                         common_bytes=sum(s.size for s in manifest.common))

"""Fault runs: ``touch_pages`` resolves a run of demand faults in one pass.

Every test drives twin machines through the same setup, then touches the
same range: one twin with ``GuestKernel.touch_pages`` (the monitor's fault
run), the other with :func:`reference_touch`, which takes each fault alone
through ``handle_page_fault`` and charges each page as it is touched. All
simulated state must come out identical, down to the insertion order of
the clock's ledgers: cycles per lane and tag, events, the Prometheus text,
the fault log, every PTE, the confined-mapping registry, the audit chain
and the trace. The ``touch_pages`` twin must also have gone through the
MMU's leaf-table pass (``Mmu.run_pages`` moved), and the reference twin
not: the pass is what the twins compare against per-page checks.
"""

import pytest

from repro.core import EreborFeatures, erebor_boot
from repro.core.policy import PolicyViolation
from repro.hw.cycles import Cost
from repro.hw.errors import PageFault
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE
from repro.hw.mmu import USER_MODE, AccessContext
from repro.kernel.process import (
    PROT_READ,
    PROT_WRITE,
    PinnedBacking,
    SegmentationFault,
)
from repro.obs import install
from repro.obs.export import chrome_trace, prometheus_text
from repro.vm import CvmMachine, MachineConfig, MIB

#: pages of the touched range, at every stride (at 256 KiB it reaches a
#: 2 MiB region with no leaf table yet)
PAGES = 24
#: pages touched during setup, so the run passes present pages
PRETOUCHED = (3, 4, 11)


def reference_touch(kernel, task, va, length, *, write=False,
                    stride=PAGE_SIZE):
    """``touch_pages`` with no fault run: each fault handled alone."""
    ctx = AccessContext(mode=USER_MODE, cr0=kernel.cpu.crs[0],
                        cr4=kernel.cpu.crs[4], pkrs=0)
    access = "write" if write else "read"
    check = kernel.cpu.mmu.check
    faults = 0
    page_va = va & ~(PAGE_SIZE - 1)
    while page_va < va + length:
        try:
            check(task.aspace, page_va, access, ctx)
        except PageFault:
            kernel.handle_page_fault(task, page_va, write)
            check(task.aspace, page_va, access, ctx)
            faults += 1
        kernel.clock.charge(Cost.MEM, "mem")
        page_va += stride
    kernel.pump()
    return faults


def boot(setting):
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    system = erebor_boot(machine, cma_bytes=32 * MIB, features=EreborFeatures(
        translation_cache=setting != "cache-off"))
    clock = machine.clock
    install(clock, trace=setting == "flight",
            metrics=setting != "bare", flight=setting == "flight")
    if setting in ("serial-2", "on-cpu"):
        clock.ensure_cpus(2)
    return system


def task_and_vma(system, kind, length):
    """A task of ``kind`` and an ordinary VMA of ``length`` bytes."""
    kernel = system.kernel
    if kind == "native":
        task = kernel.spawn("app")
        return task, kernel.mmap(task, length, PROT_READ | PROT_WRITE)
    sandbox = system.monitor.create_sandbox("sb", confined_budget=8 * MIB)
    vma = sandbox.declare_confined(length, prefault=False)
    if kind == "locked":
        sandbox.install_input(b"client data")
    return sandbox.task, vma


def observed(system, task):
    """Every piece of simulated state a fault can touch."""
    clock = system.machine.clock
    kernel = system.kernel
    tracer = clock.tracer
    return {
        "tags": [(lane, list(tags.items()))
                 for lane, tags in clock.tags_by_cpu.items()],
        "events": [(lane, list(events.items()))
                   for lane, events in clock.events_by_cpu.items()],
        "per_cpu": list(clock.per_cpu),
        "cycles": clock.cycles,
        "prometheus": prometheus_text(clock),
        "fault_log": list(kernel.fault_log),
        "ptes": [task.aspace.get_pte(vma.start + (page << PAGE_SHIFT))
                 for vma in task.vmas for page in range(vma.length >> 12)],
        "confined_mapping": list(system.monitor.vmmu.confined_mapping.items()),
        "audit_head": system.monitor.audit_head,
        "audit_seq": system.monitor.audit_seq,
        "trace": chrome_trace(tracer) if tracer.enabled else None,
    }


def touch_twins(setting, kind, *, write, stride):
    """Set up both twins identically; touch with and without runs.

    Each result is ``(faults, observed state, pages the leaf-table pass
    resolved during the compared touch)``.
    """
    results = []
    for touch in ("touch_pages", "reference"):
        system = boot(setting)
        kernel = system.kernel
        clock = system.machine.clock
        task, vma = task_and_vma(system, kind, PAGES * stride)
        for page in PRETOUCHED:
            kernel.touch_pages(task, vma.start + page * stride, PAGE_SIZE)
        fn = (kernel.touch_pages if touch == "touch_pages"
              else lambda *a, **k: reference_touch(kernel, *a, **k))
        mmu = system.machine.cpu.mmu
        run_pages = mmu.run_pages
        if setting == "on-cpu":
            with clock.on_cpu(1):
                faults = fn(task, vma.start, vma.length, write=write,
                            stride=stride)
        else:
            faults = fn(task, vma.start, vma.length, write=write,
                        stride=stride)
        results.append((faults, observed(system, task),
                        mmu.run_pages - run_pages))
    return results


@pytest.mark.parametrize("setting", ["metrics", "bare", "flight",
                                     "serial-2", "on-cpu", "cache-off"])
@pytest.mark.parametrize("stride",
                         [PAGE_SIZE, 16 * PAGE_SIZE, 64 * PAGE_SIZE],
                         ids=["4k", "64k", "256k"])
@pytest.mark.parametrize("kind", ["locked", "unlocked", "native"])
@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_fault_run_matches_per_fault_handling(setting, stride, kind, write):
    (faults, burst, passed), (ref_faults, reference, ref_passed) = (
        touch_twins(setting, kind, write=write, stride=stride))
    assert faults == ref_faults == PAGES - len(PRETOUCHED)
    # with the cache off every page takes the per-page path
    assert (passed > 0) == (setting != "cache-off") and ref_passed == 0
    assert list(burst) == list(reference) and "trace" in reference
    for key in reference:
        assert burst[key] == reference[key], key


def test_fault_runs_take_ordinary_faults_only():
    """A fault run books its faults without calling the per-fault
    handler; copy-on-write and secure-paged faults still go through it."""
    system = boot("metrics")
    kernel = system.kernel
    calls = []
    handle = kernel.handle_page_fault
    kernel.handle_page_fault = lambda *args: calls.append(args) or handle(
        *args)
    task, vma = task_and_vma(system, "locked", 8 * PAGE_SIZE)
    assert kernel.touch_pages(task, vma.start, vma.length, write=True) == 8
    assert calls == []
    sandbox = system.monitor.create_sandbox("paged", confined_budget=MIB)
    paged = sandbox.declare_confined(4 * PAGE_SIZE, secure_paging=True)
    calls.clear()      # the secure pager also prefaulted the I/O buffer
    assert kernel.touch_pages(sandbox.task, paged.start, paged.length) == 4
    assert len(calls) == 4


# ---------------------------------------------------------------------- #
# failures inside a run
# ---------------------------------------------------------------------- #

def _sealed_common_frames(system, pages):
    """Frames of a common region its initializer sealed at lock."""
    owner = system.monitor.create_sandbox("init", confined_budget=4 * MIB)
    owner.declare_confined(PAGE_SIZE)
    owner.attach_common("db", pages * PAGE_SIZE, initializer=True)
    owner.install_input(b"x")
    region = system.monitor.vmmu.common_regions["db"]
    assert not region.writable
    return region.frames


def _template_frames(system, pages):
    """Frames of a sealed fork template."""
    sandbox = system.monitor.create_sandbox("tmpl", confined_budget=4 * MIB)
    sandbox.declare_confined(pages * PAGE_SIZE)
    return system.monitor.seal_as_template(sandbox, "golden")


def deny_twins(frames_of):
    """A native task's writable VMA whose 6th page is an immutable frame:
    the run's 6th fault is denied."""
    results = []
    for touch in ("touch_pages", "reference"):
        system = boot("metrics")
        kernel = system.kernel
        immutable = frames_of(system, 4)
        ordinary = system.machine.phys.alloc_frames(5, "tmp")
        task = kernel.spawn("hostile")
        vma = kernel.mmap(task, 9 * PAGE_SIZE, PROT_READ | PROT_WRITE,
                          backing=PinnedBacking(ordinary + immutable))
        kernel.touch_pages(task, vma.start + PAGE_SIZE, PAGE_SIZE)
        fn = (kernel.touch_pages if touch == "touch_pages"
              else lambda *a, **k: reference_touch(kernel, *a, **k))
        with pytest.raises(PolicyViolation):
            fn(task, vma.start, vma.length)
        state = observed(system, task)
        monitor = system.monitor
        state["denial"] = monitor.audit_log[-1]
        state["policy_denials"] = monitor.stats.policy_denials
        results.append(state)
    return results


@pytest.mark.parametrize("frames_of", [_sealed_common_frames,
                                       _template_frames],
                         ids=["sealed-common", "template"])
def test_denial_mid_run_matches_per_fault_handling(frames_of):
    burst, reference = deny_twins(frames_of)
    assert burst["denial"].kind == "deny"
    assert burst["policy_denials"] == 1
    # the five pages before the denied one stay mapped
    assert sum(1 for pte in burst["ptes"] if pte) == 5
    for key in reference:
        assert burst[key] == reference[key], key


def segv_twins(layout):
    results = []
    for touch in ("touch_pages", "reference"):
        system = boot("metrics")
        kernel = system.kernel
        sandbox = system.monitor.create_sandbox("sb", confined_budget=MIB)
        sandbox.install_input(b"x")
        task = sandbox.task
        start = task.mmap_range(12 * PAGE_SIZE)
        kernel.mmap(task, 6 * PAGE_SIZE, PROT_READ | PROT_WRITE,
                    fixed_va=start)
        if layout == "read-only":
            kernel.mmap(task, 6 * PAGE_SIZE, PROT_READ,
                        fixed_va=start + 6 * PAGE_SIZE)
        kernel.touch_pages(task, start + 2 * PAGE_SIZE, PAGE_SIZE)
        fn = (kernel.touch_pages if touch == "touch_pages"
              else lambda *a, **k: reference_touch(kernel, *a, **k))
        with pytest.raises(SegmentationFault):
            fn(task, start, 12 * PAGE_SIZE, write=True)
        results.append(observed(system, task))
    return results


@pytest.mark.parametrize("layout", ["read-only", "past-end"])
def test_segfault_mid_run_matches_per_fault_handling(layout):
    burst, reference = segv_twins(layout)
    # the pages before the failing one stay mapped
    assert sum(1 for pte in burst["ptes"] if pte) == 6
    for key in reference:
        assert burst[key] == reference[key], key

"""Fault runs: ``touch_pages`` resolves a run of demand faults in one pass.

Every test drives twin machines through the same setup, then touches the
same range: one twin with ``GuestKernel.touch_pages`` (the monitor's fault
run resolves missing spans, the handler every other fault), the other
with :func:`reference_touch`, which takes each fault alone through
``handle_page_fault`` and charges each page as it is touched. All
simulated state must come out identical, down to the insertion order of
the clock's ledgers: cycles per lane and tag, events, the Prometheus text,
the fault log, every PTE, the confined-mapping registry, the audit chain
and the trace. ``Mmu.check_run`` passes pages as spans or visits them
one at a time; the ``touch_pages`` twin must have passed exactly the
pages each case expects as spans (``Mmu.run_pages``), and the reference
twin none: spans are what the twins compare against per-page checks.
"""

from contextlib import nullcontext
from unittest import mock

import pytest

from repro.core import erebor_boot
from repro.core.exits import MonitorFaultRun
from repro.core.policy import PolicyViolation
from repro.hw.cycles import Cost
from repro.hw.errors import PageFault
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE
from repro.hw.mmu import USER_MODE, AccessContext
from repro.hw.paging import (
    HUGE_PAGE_FRAMES,
    HUGE_PAGE_SIZE,
    PTE_A,
    PTE_NX,
    PTE_PS,
    PTE_U,
    PTE_W,
)
from repro.kernel.kernel import GuestKernel
from repro.kernel.process import (
    PROT_READ,
    PROT_WRITE,
    PinnedBacking,
    SegmentationFault,
)
from repro.fleet import build_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS
from repro.obs import install
from repro.obs.export import chrome_trace, prometheus_text
from repro.vm import CvmMachine, MachineConfig, MIB
from tests.machine_state import machine_state_digest
from tests.reference import reference_paths

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
    system = erebor_boot(machine, cma_bytes=32 * MIB)
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

    Each result is ``(faults, observed state, pages passed as spans
    during the compared touch)``; for a span edge (``EDGES``)
    whose touch raises, ``faults`` is the exception's type and text.
    """
    results = []
    for touch in ("touch_pages", "reference"):
        system = boot(setting)
        kernel = system.kernel
        clock = system.machine.clock
        if kind in EDGES:
            task, start, length = EDGES[kind](system, stride)
        else:
            task, vma = task_and_vma(system, kind, PAGES * stride)
            start, length = vma.start, vma.length
            for page in PRETOUCHED:
                kernel.touch_pages(task, start + page * stride, PAGE_SIZE)
        fn = (kernel.touch_pages if touch == "touch_pages"
              else lambda *a, **k: reference_touch(kernel, *a, **k))
        mmu = system.machine.cpu.mmu
        run_pages = mmu.run_pages
        try:
            if setting == "on-cpu":
                with clock.on_cpu(1):
                    faults = fn(task, start, length, write=write,
                                stride=stride)
            else:
                faults = fn(task, start, length, write=write, stride=stride)
        except (PolicyViolation, SegmentationFault, PageFault) as exc:
            if kind not in EDGES:
                raise
            faults = (type(exc).__name__, str(exc))
        results.append((faults, observed(system, task),
                        mmu.run_pages - run_pages))
    return results


# ---------------------------------------------------------------------- #
# span edges: each builds a task and the range the compared touch covers
# ---------------------------------------------------------------------- #

def _pinned_task(system, pages, *, owner="tmp"):
    """A native task and a writable VMA of ``pages`` pages over frames
    tagged ``owner``."""
    kernel = system.kernel
    task = kernel.spawn("app")
    frames = system.machine.phys.alloc_frames(pages, owner)
    vma = kernel.mmap(task, pages * PAGE_SIZE, PROT_READ | PROT_WRITE,
                      backing=PinnedBacking(frames))
    return task, vma


def _edge_vma_end(system, stride):
    """Two adjacent VMAs, anonymous then pinned: a span runs past the
    first one's end."""
    kernel = system.kernel
    task = kernel.spawn("app")
    first = kernel.mmap(task, 10 * stride, PROT_READ | PROT_WRITE)
    frames = system.machine.phys.alloc_frames(14 * stride // PAGE_SIZE, "tmp")
    kernel.mmap(task, len(frames) * PAGE_SIZE, PROT_READ | PROT_WRITE,
                backing=PinnedBacking(frames), fixed_va=first.end)
    return task, first.start, PAGES * stride


def _edge_pinned_vma_end(system, stride):
    """Two adjacent pinned VMAs: a span runs past the first one's end."""
    kernel = system.kernel
    task, first = _pinned_task(system, 10 * stride // PAGE_SIZE)
    frames = system.machine.phys.alloc_frames(14 * stride // PAGE_SIZE, "tmp")
    kernel.mmap(task, len(frames) * PAGE_SIZE, PROT_READ | PROT_WRITE,
                backing=PinnedBacking(frames), fixed_va=first.end)
    return task, first.start, PAGES * stride


def _edge_extent(system, stride):
    """The VMA's frames change owner extent halfway through a span."""
    task, vma = _pinned_task(system, PAGES * stride // PAGE_SIZE)
    frames = vma.backing.frames
    half = len(frames) // 2
    system.machine.phys.set_owner(frames[half], frames[-1] + 1, "other")
    return task, vma.start, vma.length


def _edge_confined(system, stride):
    """A sandbox's ordinary VMA with some of its frames confined to it."""
    kernel = system.kernel
    sandbox = system.monitor.create_sandbox("sb", confined_budget=MIB)
    task = sandbox.task
    frames = system.machine.phys.alloc_frames(PAGES * stride // PAGE_SIZE,
                                              "tmp")
    system.monitor.vmmu.declare_confined(
        sandbox.sandbox_id, frames[5 * stride // PAGE_SIZE::3])
    vma = kernel.mmap(task, len(frames) * PAGE_SIZE, PROT_READ | PROT_WRITE,
                      backing=PinnedBacking(frames))
    return task, vma.start, vma.length


def _edge_denied(system, stride):
    """The 6th page touched maps a sealed template frame."""
    task, vma = _pinned_task(system, PAGES * stride // PAGE_SIZE)
    golden = _template_frames(system, 1)[0]
    frames = vma.backing.frames
    frames[5 * stride // PAGE_SIZE:] = [golden] * (len(frames)
                                                   - 5 * stride // PAGE_SIZE)
    return task, vma.start, vma.length


def _edge_segv(system, stride):
    """The VMA ends at the 11th page touched, with nothing after it."""
    task, vma = _pinned_task(system, 10 * stride // PAGE_SIZE)
    return task, vma.start, PAGES * stride


def _present(system, stride):
    """A VMA whose touched pages are all present (one read touch)."""
    task, vma = _pinned_task(system, PAGES * stride // PAGE_SIZE)
    system.kernel.touch_pages(task, vma.start, vma.length, stride=stride)
    return task, vma


def _edge_no_accessed(system, stride):
    """A present span whose 7th page lost its accessed bit."""
    task, vma = _present(system, stride)
    va = vma.start + 6 * stride
    task.aspace.set_pte(va, task.aspace.get_pte(va) & ~PTE_A)
    return task, vma.start, vma.length


def _edge_shadow(system, stride):
    """A present span whose 7th page maps a shadow-stack frame."""
    task, vma = _present(system, stride)
    fn = task.aspace.mapped_frame(vma.start + 6 * stride)
    system.machine.phys.frame(fn).is_shadow_stack = True
    return task, vma.start, vma.length


def _edge_huge(system, stride):
    """The range's middle 2 MiB region is one huge (PS) leaf."""
    kernel = system.kernel
    task = kernel.spawn("app")
    start = task.mmap_range(HUGE_PAGE_SIZE)
    start += -start % HUGE_PAGE_SIZE
    length = max(PAGES * stride, 3 * HUGE_PAGE_SIZE)
    pages = length // PAGE_SIZE
    run = system.machine.phys.alloc_frames(pages + HUGE_PAGE_FRAMES, "tmp",
                                           contiguous=True)
    base = run[0] + -run[0] % HUGE_PAGE_FRAMES
    kernel.mmap(task, length, PROT_READ | PROT_WRITE, fixed_va=start,
                backing=PinnedBacking(list(range(base, base + pages))))
    vmmu = system.monitor.vmmu
    vmmu.register_aspace(task.aspace)
    vmmu.write_huge_pte(task.aspace, start + HUGE_PAGE_SIZE,
                        base + HUGE_PAGE_FRAMES, PTE_W | PTE_U | PTE_NX)
    kernel.touch_pages(task, start, length, stride=stride)
    return task, start, length


def _edge_ps_slot(system, stride):
    """A present span whose 7th leaf entry carries the PS bit."""
    task, vma = _present(system, stride)
    va = vma.start + 6 * stride
    task.aspace.set_pte(va, task.aspace.get_pte(va) | PTE_PS)
    return task, vma.start, vma.length


#: pages passed as spans in an edge's compared touch, for the edges
#: where that depends on neither stride nor access (see
#: :func:`edge_passed`)
EDGE_PASSED = {
    "confined": PAGES,
    "extent": PAGES,
    # the span stops at the VMA's end and the next page is visited; an
    # anonymous VMA also visits the page after its first one, whose
    # install builds the leaf table
    "pinned-vma-end": PAGES - 1,
    "vma-end": PAGES - 2,
    # the touch raises at the failing page
    "denied": 5,
    "segv": 10,
}


def edge_passed(edge, write, stride):
    """The pages an edge's compared touch passes as spans."""
    if edge in EDGE_PASSED:
        return EDGE_PASSED[edge]
    if write:
        # the setup's read touch set no dirty bit: every page is visited
        return 0
    if edge == "huge-leaf":
        # all but the huge leaf's pages
        return (max(PAGES * stride, 3 * HUGE_PAGE_SIZE)
                - HUGE_PAGE_SIZE) // stride
    if edge in ("no-accessed", "ps-slot"):
        # the odd entry's leaf table is visited whole, as one span with
        # mixed flags
        return max(PAGES - HUGE_PAGE_SIZE // stride, 0)
    assert edge == "shadow"     # a read does not read the flag
    return PAGES


EDGES = {
    "vma-end": _edge_vma_end,
    "pinned-vma-end": _edge_pinned_vma_end,
    "extent": _edge_extent,
    "confined": _edge_confined,
    "denied": _edge_denied,
    "segv": _edge_segv,
    "no-accessed": _edge_no_accessed,
    "shadow": _edge_shadow,
    "huge-leaf": _edge_huge,
    "ps-slot": _edge_ps_slot,
}


@pytest.mark.parametrize("setting", ["metrics", "bare", "flight",
                                     "serial-2", "on-cpu", "cache-off"])
@pytest.mark.parametrize("stride",
                         [PAGE_SIZE, 16 * PAGE_SIZE, 64 * PAGE_SIZE],
                         ids=["4k", "64k", "256k"])
@pytest.mark.parametrize("kind", ["locked", "unlocked", "native"])
@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_fault_run_matches_per_fault_handling(setting, stride, kind, write):
    # cache-off: every walk misses the paging-structure cache and
    # check_run reads no span, so touch_pages hands every fault to the
    # handler too; the twins still compare its visit loop and deferred
    # MEM charges with reference_touch's per-page ones
    with (reference_paths("psc", "spans") if setting == "cache-off"
          else nullcontext()):
        (faults, burst, passed), (ref_faults, reference, ref_passed) = (
            touch_twins(setting, kind, write=write, stride=stride))
    assert faults == ref_faults == PAGES - len(PRETOUCHED)
    if setting == "cache-off":
        expected = 0        # every page is visited
    else:
        # the setup's read touch set no dirty bit: a write visits its pages
        expected = 0 if write else len(PRETOUCHED)
    if setting not in ("cache-off", "flight"):
        # the missing spans; the flight recorder takes no fault run, which
        # declines each of them
        expected += PAGES - len(PRETOUCHED)
        if kind == "native" and stride == 64 * PAGE_SIZE:
            # an anonymous VMA in a 2 MiB region with no leaf table yet:
            # the span resolves the page whose install builds the table,
            # and the page after it is visited
            expected -= 1
    assert passed == expected and ref_passed == 0
    assert list(burst) == list(reference) and "trace" in reference
    for key in reference:
        assert burst[key] == reference[key], key


@pytest.mark.parametrize("stride",
                         [PAGE_SIZE, 16 * PAGE_SIZE, 64 * PAGE_SIZE],
                         ids=["4k", "64k", "256k"])
@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_span_edge_matches_per_fault_handling(edge, stride, write):
    (faults, burst, passed), (ref_faults, reference, ref_passed) = (
        touch_twins("metrics", edge, write=write, stride=stride))
    assert faults == ref_faults
    assert passed == edge_passed(edge, write, stride) and ref_passed == 0
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


# ---------------------------------------------------------------------- #
# the llama fleet, with and without spans
# ---------------------------------------------------------------------- #

def test_llama_fleet_matches_per_page_touches():
    """A reduced llama fleet under ``reference_paths()``, where no span is
    read and the per-fault handler takes every demand fault, and outside
    it, where spans resolve most of its faults: every simulated outcome
    is the same.

    The machine state is compared after every scheduling step too, while
    sandboxes are live and their confined frames recorded: at the end of
    the run the confined registries are empty again, so only a live
    digest sees a span that skipped a frame's record."""
    results = []
    for arm in (nullcontext, reference_paths):
        spans = []
        handled = []
        span = MonitorFaultRun.span
        handle = GuestKernel.handle_page_fault

        def spy(self, *args):
            resolved = span(self, *args)
            spans.append(len(resolved[1]) if resolved else 0)
            return resolved

        def handler_spy(self, *args):
            handled.append(args[1])
            return handle(self, *args)

        with arm(), mock.patch.object(MonitorFaultRun, "span", spy), \
                mock.patch.object(GuestKernel, "handle_page_fault",
                                  handler_spy):
            fleet = build_fleet(**dict(LLAMA_FLEET_PARAMS, clients=2))
            system, scheduler = fleet.system, fleet.scheduler
            confined = system.monitor.vmmu.confined_mapping
            for session in fleet.sessions:
                scheduler.submit(session)
            live = []
            while scheduler.active:
                scheduler.step()
                live.append((len(confined), machine_state_digest(system)))
            report = fleet.report()
        clock = system.machine.clock
        fault_log = system.kernel.fault_log
        results.append((sum(spans), len(handled), clock.events["page_fault"],
                        {
            "digest": report.digest(),
            "live_states": live,
            "state": machine_state_digest(system),
            "tags": [(lane, list(tags.items()))
                     for lane, tags in clock.tags_by_cpu.items()],
            "events": [(lane, list(events.items()))
                       for lane, events in clock.events_by_cpu.items()],
            "fault_log": (list(fault_log), fault_log.dropped),
        }))
    ((spanned, handled, faults, burst),
     (ref_spanned, ref_handled, ref_faults, reference)) = results
    assert spanned > 1000 and ref_spanned == 0
    # the reference arm takes every demand fault through the handler; the
    # fast arm leaves it only the faults no span resolves
    assert faults == ref_faults == ref_handled
    assert handled + spanned == faults and handled * 100 < faults
    # the first step's digest covers live confined records
    assert reference["live_states"][0][0] > 0
    for key in reference:
        assert burst[key] == reference[key], key


def test_state_digest_covers_confined_registries():
    """A touch that skipped a confined frame's single-mapping record, or
    its owner, leaves PTEs and frame bytes alone but fails the digest."""
    system = boot("metrics")
    task, vma = task_and_vma(system, "locked", 4 * PAGE_SIZE)
    system.kernel.touch_pages(task, vma.start, vma.length)
    vmmu = system.monitor.vmmu
    fn = task.aspace.mapped_frame(vma.start)
    assert vmmu.confined_mapping[fn] == (task.aspace.root_fn, vma.start)
    digest = machine_state_digest(system)
    mapping = vmmu.confined_mapping.pop(fn)
    assert machine_state_digest(system) != digest
    vmmu.confined_mapping[fn] = mapping
    assert machine_state_digest(system) == digest
    vmmu.confined_owner[fn] += 1
    assert machine_state_digest(system) != digest

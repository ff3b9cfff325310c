"""Twin machines for the tick-run tests.

:func:`boot` builds a machine whose run queue holds one kind of task,
:func:`tick_runs` records the count of every timer-tick booking, and
:func:`twin` runs one body as the kernel runs and under
``reference_paths()``, where each tick is booked alone and
``parallel_for`` steps chunk by chunk.
"""

from contextlib import contextmanager, nullcontext

from repro.core import erebor_boot
from repro.kernel.kernel import GuestKernel
from repro.libos import LibOs, Manifest
from repro.obs import install
from repro.vm import CvmMachine, MachineConfig, MIB
from tests.reference import reference_paths

#: who holds the CPU: a locked or unlocked sandbox, native tasks under
#: the monitor (no sandbox), native tasks on a kernel without Erebor, or
#: an unlocked sandbox's threads and native tasks in turn; ``-1`` runs
#: one lone task, which ``_pick_next`` never resets
CURRENT = ("locked", "unlocked", "proc", "native-kernel", "mixed",
           "locked-1", "proc-1", "native-kernel-1")

#: a tick period a locked tick plus a context switch nearly fills, so a
#: tick's own cost makes the next one due
SHORT_PERIOD = 50_000


@contextmanager
def tick_runs(runs):
    """Record the count of every tick booking into ``runs``."""
    book = GuestKernel._timer_tick

    def spy(self, count=1):
        runs.append(count)
        return book(self, count)

    GuestKernel._timer_tick = spy
    try:
        yield
    finally:
        GuestKernel._timer_tick = book


def boot(current, observer=None, *, threads=3):
    """A machine whose run queue holds the tasks ``current`` names, with
    metrics on and a tracer (``observer="tracer"``) or a tick hook
    (``"hook"``) if asked; returns it, its kernel and the LibOS (None
    without a sandbox)."""
    kind = current.removesuffix("-1")
    tasks = 1 if kind != current else threads
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    libos = None
    if kind == "native-kernel":
        kernel = machine.boot_native_kernel()
    else:
        system = erebor_boot(machine, cma_bytes=32 * MIB)
        kernel = system.kernel
    install(machine.clock, trace=observer == "tracer", metrics=True)
    if kind in ("locked", "unlocked", "mixed"):
        libos = LibOs.boot_sandboxed(system, Manifest(
            name="app", heap_bytes=MIB, threads=tasks))
        if kind == "locked":
            libos.sandbox.lock()
    if kind in ("proc", "native-kernel", "mixed"):
        for i in range(tasks):
            kernel.spawn(f"proc{i}")
    if observer == "hook":
        kernel.tick_hooks.append(lambda: None)
    return machine, kernel, libos


def twin(body):
    """``body()`` as the kernel runs and inside ``reference_paths()``:
    ``[(result, bookings), (reference result, reference bookings)]``,
    each with the tick count of every booking."""
    results = []
    for arm in (nullcontext, reference_paths):
        runs = []
        with arm(), tick_runs(runs):
            results.append((body(), runs))
    return results

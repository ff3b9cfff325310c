"""A digest of a booted system's simulated memory state.

The fleet report digest covers what a run computed, not the page tables
and frames it left behind, so a host fast path that writes a wrong PTE
(say, one that skips the accessed/dirty update of an install) can keep
every report pin green. :func:`machine_state_digest` hashes that state
directly:

* every present leaf PTE of every address space the monitor registered,
  read through ``phys.read_u64`` only, so hashing builds no frame;
* ``usage_by_owner()``, and the frames ``owned_by`` each owner tag;
* the sha256 of every frame whose bytes are not all zero;
* the monitor's C6 registries: ``vmmu.confined_owner`` (frame to
  sandbox) and ``vmmu.confined_mapping`` (frame to its single mapping),
  so a fast path that skips a confined frame's record fails the digest.

Frame lists and registries are hashed in ascending order, so the digest does not depend
on the order in which frames were first touched.

:func:`clock_state` collects what a run leaves on the clock, the host and
the kernel's tasks, for twins that compare two runs field by field.
"""

from __future__ import annotations

import hashlib

from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import ENTRIES_PER_TABLE, PTE_P, PTE_PS, pte_frame
from repro.obs.export import chrome_trace, prometheus_text

_ZERO = bytes(PAGE_SIZE)


def _present_leaves(phys, root_fn: int):
    """``(va, pte)`` of every present leaf under ``root_fn``, in VA order."""
    read = phys.read_u64
    for i2 in range(ENTRIES_PER_TABLE):
        e2 = read((root_fn << 12) + i2 * 8)
        if not e2 & PTE_P:
            continue
        l1 = pte_frame(e2)
        for i1 in range(ENTRIES_PER_TABLE):
            e1 = read((l1 << 12) + i1 * 8)
            if not e1 & PTE_P:
                continue
            if e1 & PTE_PS:
                yield (i2 << 30) | (i1 << 21), e1
                continue
            l0 = pte_frame(e1)
            for i0 in range(ENTRIES_PER_TABLE):
                pte = read((l0 << 12) + i0 * 8)
                if pte & PTE_P:
                    yield (i2 << 30) | (i1 << 21) | (i0 << 12), pte


def machine_state_digest(system) -> str:
    """sha256 over the PTEs, owner tags, frame bytes and confined-frame
    registries of ``system``."""
    monitor = system.monitor
    phys = monitor.phys
    h = hashlib.sha256()
    for root in sorted(monitor.vmmu.registered_roots):
        h.update(f"root {root}\n".encode())
        for va, pte in _present_leaves(phys, root):
            h.update(f"{va:x} {pte:x}\n".encode())
    usage = phys.usage_by_owner()
    for tag in sorted(usage):
        h.update(f"owner {tag} {usage[tag]}\n".encode())
        h.update(",".join(map(str, sorted(phys.owned_by(tag)))).encode())
    for fn, frame in sorted(phys.frames.items()):
        if frame.data is not None and frame.data != _ZERO:
            h.update(f"\nframe {fn} ".encode()
                     + hashlib.sha256(frame.data).digest())
    vmmu = monitor.vmmu
    for fn, sandbox_id in sorted(vmmu.confined_owner.items()):
        h.update(f"\nconfined {fn} {sandbox_id}".encode())
    for fn, (root, va) in sorted(vmmu.confined_mapping.items()):
        h.update(f"\nmapped {fn} {root} {va:x}".encode())
    return h.hexdigest()


def wire_digest(system) -> str:
    """sha256 of every byte string the host saw (``observed_blob``): the
    handshakes' public values and every sealed record, which a key
    exchange that is wrong on both ends in the same way changes."""
    return hashlib.sha256(system.machine.vmm.observed_blob()).hexdigest()


def clock_state(machine, kernel) -> dict:
    """What a run leaves on ``machine``'s clock, its host and ``kernel``'s
    tasks: both clock ledgers in insertion order, ``per_cpu``, every host
    observation, each task's ``utime_cycles``, the Prometheus text and,
    with a tracer armed, the Chrome trace."""
    clock = machine.clock
    return {
        "tags": [(lane, list(tags.items()))
                 for lane, tags in clock.tags_by_cpu.items()],
        "events": [(lane, list(events.items()))
                   for lane, events in clock.events_by_cpu.items()],
        "per_cpu": list(clock.per_cpu),
        "cycles": clock.cycles,
        "observations": list(machine.vmm.observations),
        "utime": {pid: task.utime_cycles
                  for pid, task in kernel.tasks.items()},
        "prometheus": prometheus_text(clock),
        "trace": (chrome_trace(clock.tracer) if clock.tracer.enabled
                  else None),
    }

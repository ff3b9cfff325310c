"""Plane-attribution budget ledger: where every simulated cycle went.

PR 8's translation cache won 12.6x on the cpu-bound arm but only 1.24x on
the fleet arm, and the reason ("the demand-fault/macro plane dominates")
had to be established by hand. This module makes that attribution a
first-class, conservation-checked artifact: every simulated cycle a run
charged is assigned to exactly one named **plane**, per execution lane
(one lane per logical CPU plus the serial/barrier lane), and the sums are
verified bit-exactly against the clock's own busy/wall ledgers.

The raw material is :attr:`repro.hw.cycles.CycleClock.tags_by_cpu`, the
clock's only per-tag store: a lane's busy value *is* its tag sum, while
``cycles`` and ``per_cpu`` are separate scalars. So the invariant

* for every cpu lane ``c``:   ``sum(lane_tags[c]) == busy_by_cpu[c]``
* for the serial lane:        ``sum(lane_tags[SERIAL]) == cycles - Σbusy``
* over all lanes:             ``Σ == cycles`` (the serial total)

holds when every charge moved ``cycles`` and one lane together;
:func:`verify_conservation` re-derives it from the exported dict.

Planes (the taxonomy DESIGN §8 documents; ``TAG_PLANES`` maps the clock's
charge tags onto it):

==============  =========================================================
plane           what it prices
==============  =========================================================
exec.interpret  interpreted instruction retirement (``instr`` minus the
                superblock carve) plus macro compute loops
exec.superblock superblock-burst retirement (charged by the compiled
                blocks ``Cpu._translated_burst`` runs; carved out of
                ``instr`` via the per-core
                ``TranslationCache.sb_cycles`` counter)
mmu             checked data movement through :class:`~repro.hw.mmu.Mmu`
                (the walk itself is uncharged)
fault           demand-fault and CoW resolution
emc             EMC gate dispatch + monitor-side validation
privop          interposed privileged operations (PTE/CR/MSR/IDT writes,
                cpuid emulation, module loads)
transition      privilege/world transitions: syscalls, #VE, tdcall,
                vmcall, exception/IRQ delivery, #INT gates, exit
                interposition
sandbox         sandbox lifecycle: state save/mask, secure pager,
                uarch disturbance, template fork
sched           scheduler/queue work (fleet driver, libos spin-wait)
scrub           pool scrub on release
verify          byte-scan / CFG verification
io              network + sealed-channel crypto/copy, libos services
mitigation      §12 side-channel mitigations
obs             the observability plane itself — **always 0 simulated
                cycles** (lint rule D2: obs reads the clock, never
                spends it); present so reports carry an explicit zero
other           any tag the taxonomy does not know (future charge sites
                degrade visibly, not silently)
untagged        charges made with ``tag=None``
==============  =========================================================

Like every obs module this one is read-only on the clock (lint rule D2):
capturing a ledger moves no simulated state, so seeded digests are
byte-identical whether or not anyone ever looks at the budget.
"""

from __future__ import annotations

from ..hw.cycles import CPU_FREQ_HZ, SERIAL_LANE

#: schema version stamped into every captured ledger
LEDGER_VERSION = 1

#: the full plane taxonomy, in documentation order
PLANES = (
    "exec.interpret", "exec.superblock", "mmu", "fault", "emc", "privop",
    "transition", "sandbox", "sched", "scrub", "verify", "io",
    "mitigation", "obs", "other", "untagged",
)

#: clock charge tag → plane. ``instr`` lands in ``exec.interpret`` first
#: and the superblock carve moves ``sb_cycles`` of it to
#: ``exec.superblock`` (both charge sites use the same tag by design —
#: the cache-on/off ``by_tag`` equality is test-pinned).
TAG_PLANES = {
    "instr": "exec.interpret",
    "compute": "exec.interpret",
    "loop": "exec.interpret",
    "mem": "mmu",
    "pagefault": "fault",
    "cow_copy": "fault",
    "emc": "emc",
    "emc_validate": "emc",
    "mmu_op": "privop",
    "cr_op": "privop",
    "msr_op": "privop",
    "idt_op": "privop",
    "wrmsr": "privop",
    "cpuid": "privop",
    "module_load": "privop",
    "syscall": "transition",
    "syscall_work": "transition",
    "ve": "transition",
    "tdcall": "transition",
    "tdreport": "transition",
    "vmcall": "transition",
    "exc_delivery": "transition",
    "irq": "transition",
    "int_gate": "transition",
    "exit_interpose": "transition",
    "sandbox_state": "sandbox",
    "secure_pager": "sandbox",
    "uarch": "sandbox",
    "fork": "sandbox",
    "sst": "sandbox",
    "sched": "sched",
    "libos_spin": "sched",
    "scrub": "scrub",
    "verify": "verify",
    "verify-cfg": "verify",
    "net": "io",
    "channel_crypto": "io",
    "channel_copy": "io",
    "user_copy": "io",
    "libos": "io",
    "mitigation_flush": "mitigation",
    "mitigation_throttle": "mitigation",
    "mitigation_noise": "mitigation",
    "mitigation_quantize": "mitigation",
    "untagged": "untagged",
}


def lane_name(lane: int) -> str:
    """``"serial"`` or ``"cpuN"``: a lane's name in ledgers and dumps."""
    return "serial" if lane == SERIAL_LANE else f"cpu{lane}"


def _superblock_cycles_by_lane(machine) -> dict[int, int]:
    """Per-lane superblock-executed cycles from each core's tcache.

    ``Cpu.run`` wraps execution in ``on_cpu(cpu_id)``, so a core's
    ``sb_cycles`` counter and its ``instr`` lane charges line up exactly.
    """
    out: dict[int, int] = {}
    if machine is None:
        return out
    for cpu in _machine_cpus(machine):
        tcache = getattr(cpu, "tcache", None)
        if tcache is not None and tcache.sb_cycles:
            lane = getattr(cpu, "cpu_id", 0)
            out[lane] = out.get(lane, 0) + tcache.sb_cycles
    return out


def _machine_cpus(machine) -> list:
    """Every simulated Cpu object a machine carries (today: one)."""
    cpus = getattr(machine, "cpus", None)
    if cpus:
        return list(cpus)
    cpu = getattr(machine, "cpu", None)
    return [cpu] if cpu is not None else []


def capture_ledger(clock, machine=None) -> dict:
    """Snapshot the plane-attribution budget of one clock (read-only).

    Returns a JSON-able dict (``check_ledger``-valid) with one entry per
    execution lane — busy cycles, the plane breakdown, and the raw tag
    breakdown — plus machine-wide plane totals and the verified
    conservation block. Pass the machine to carve superblock-burst
    execution out of the ``instr`` tag and to attach the translation
    summary (superblock counters and coverage).
    """
    sb_by_lane = _superblock_cycles_by_lane(machine)
    lanes: dict[str, dict] = {}
    planes_total: dict[str, int] = {}
    for lane in sorted(clock.tags_by_cpu):
        tags = dict(clock.tags_by_cpu[lane])
        planes: dict[str, int] = {}
        for tag, cycles in tags.items():
            plane = TAG_PLANES.get(tag, "other")
            planes[plane] = planes.get(plane, 0) + cycles
        carve = sb_by_lane.get(lane, 0)
        if carve:
            # within-lane move: conservation is untouched by construction
            carve = min(carve, planes.get("exec.interpret", 0))
            planes["exec.interpret"] -= carve
            planes["exec.superblock"] = \
                planes.get("exec.superblock", 0) + carve
        lanes[lane_name(lane)] = {
            "busy": sum(tags.values()),
            "planes": {k: v for k, v in sorted(planes.items()) if v},
            "tags": dict(sorted(tags.items())),
        }
        for plane, cycles in planes.items():
            planes_total[plane] = planes_total.get(plane, 0) + cycles
    ledger = {
        "version": LEDGER_VERSION,
        "cycles": clock.cycles,
        "wall_cycles": clock.wall_cycles,
        "wall_seconds": round(clock.wall_cycles / CPU_FREQ_HZ, 9),
        "per_cpu_cycles": list(clock.per_cpu),
        "per_cpu_busy": [clock.cpu_busy(c)
                         for c in range(len(clock.per_cpu))],
        "lanes": lanes,
        "planes": {k: v for k, v in sorted(planes_total.items()) if v},
        # obs is structurally zero (D2) but gets its slot so diff reports
        # have a stable key set
        "obs_cycles": 0,
    }
    ledger["conservation"] = verify_conservation(ledger)
    if machine is not None:
        ledger["translation"] = translation_summary(machine, ledger)
    return ledger


def verify_conservation(ledger: dict) -> dict:
    """Re-derive the conservation invariant from an exported ledger.

    Checks, bit-exactly (no tolerance):

    * every ``cpuN`` lane's plane sum == tag sum == the clock's
      ``busy_by_cpu[N]``;
    * the serial lane's sum == ``cycles - Σ busy``;
    * all lanes together == ``cycles`` (the serial total);
    * ``wall_cycles`` == max over ``per_cpu_cycles``.

    Returns ``{"ok": bool, "checked_lanes": n, "violations": [...]}``.
    """
    violations: list[str] = []
    busy = ledger.get("per_cpu_busy", [])
    lanes = ledger.get("lanes", {})
    total = 0
    for name, lane in lanes.items():
        plane_sum = sum(lane.get("planes", {}).values())
        tag_sum = sum(lane.get("tags", {}).values())
        if plane_sum != tag_sum:
            violations.append(
                f"{name}: plane sum {plane_sum} != tag sum {tag_sum}")
        total += tag_sum
        if name.startswith("cpu"):
            idx = int(name[3:])
            expect = busy[idx] if idx < len(busy) else 0
            if tag_sum != expect:
                violations.append(
                    f"{name}: lane sum {tag_sum} != busy ledger {expect}")
    serial_sum = sum(lanes.get("serial", {}).get("tags", {}).values())
    expect_serial = ledger.get("cycles", 0) - sum(busy)
    if serial_sum != expect_serial:
        violations.append(f"serial: lane sum {serial_sum} != "
                          f"cycles - busy {expect_serial}")
    if total != ledger.get("cycles", 0):
        violations.append(f"lanes total {total} != "
                          f"cycles {ledger.get('cycles', 0)}")
    per_cpu = ledger.get("per_cpu_cycles", [])
    if per_cpu and ledger.get("wall_cycles") != max(per_cpu):
        violations.append("wall_cycles != max(per_cpu_cycles)")
    return {"ok": not violations, "checked_lanes": len(lanes),
            "violations": violations}


def translation_summary(machine, ledger: dict | None = None) -> dict:
    """Translation-cache effectiveness, host-plane only.

    The superblock counters plus the coverage fraction — the share of
    execution-plane cycles retired through superblock bursts. Derived
    from the same counters the fleet exports as
    ``erebor_sim_superblock_exec_total``; never part of any digest
    preimage.
    """
    sb = {"sb_exec": 0, "sb_builds": 0, "sb_hits": 0, "sb_cycles": 0}
    for cpu in _machine_cpus(machine):
        tcache = getattr(cpu, "tcache", None)
        if tcache is not None:
            for key, value in tcache.stats().items():
                sb[key] += value
    coverage = 0.0
    if ledger is not None:
        planes = ledger.get("planes", {})
        execute = (planes.get("exec.interpret", 0)
                   + planes.get("exec.superblock", 0))
        if execute:
            coverage = round(planes.get("exec.superblock", 0) / execute, 6)
    return {**sb, "superblock_coverage": coverage}

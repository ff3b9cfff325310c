"""Budget ledger: plane attribution with a bit-exact conservation law.

The contract under test (DESIGN §8):

* every simulated cycle a run charges lands in exactly one plane of
  exactly one lane, and the per-lane sums equal the clock's own busy
  ledgers **bit-exactly** — on seeded 1/2/4-core fleets with every obs
  plane armed (certificates, SLO, anomaly, flight recorder);
* capturing a ledger is read-only: pinned digests are byte-identical
  whether or not a ledger was ever captured;
* the superblock carve splits ``instr`` into interpret vs burst cycles
  without touching conservation (it moves cycles within one lane).
"""

import pytest

from repro.fleet.goldens import (
    SMP_PARAMS,
    SMP_PINNED,
    SMP_PLANES,
    SMP_STATE_PINNED,
    SMP_WIRE_PINNED,
)
from repro.fleet.loadgen import build_fleet, run_fleet
from repro.hw.cycles import SERIAL_LANE, CycleClock
from repro.obs.export import prometheus_text
from repro.obs.ledger import (
    TAG_PLANES,
    capture_ledger,
    translation_summary,
    verify_conservation,
)
from tests.machine_state import machine_state_digest, wire_digest
from repro.obs.schema import check_ledger

# --------------------------------------------------------------------------- #
# unit-level: the clock's lane-resolved tag ledgers
# --------------------------------------------------------------------------- #

def test_scoped_charges_land_in_the_cpu_lane():
    clock = CycleClock()
    clock.ensure_cpus(2)
    with clock.on_cpu(0):
        clock.charge(100, "instr")
    with clock.on_cpu(1):
        clock.charge(50, "mem")
    assert clock.cpu_tags(0) == {"instr": 100}
    assert clock.cpu_tags(1) == {"mem": 50}
    assert clock.cpu_tags(SERIAL_LANE) == {}


def test_serial_and_untagged_charges_land_in_the_serial_lane():
    clock = CycleClock()
    clock.ensure_cpus(2)
    clock.charge(70, "sched")      # serial barrier: no cpu scope
    clock.charge(30)               # untagged
    assert clock.cpu_tags(SERIAL_LANE) == {"sched": 70, "untagged": 30}
    # by_tag keeps its historical contents: no synthetic "untagged" key
    assert "untagged" not in clock.by_tag


def test_single_cpu_unscoped_charges_are_serial_lane():
    # single-core unscoped charges advance per_cpu[0] but not busy —
    # the tags ledger must agree with the busy ledger, not the lane pos
    clock = CycleClock()
    clock.charge(40, "compute")
    assert clock.cpu_busy(0) == 0
    assert clock.cpu_tags(0) == {}
    assert clock.cpu_tags(SERIAL_LANE) == {"compute": 40}


def test_lane_sums_equal_busy_ledgers_bit_exactly():
    clock = CycleClock()
    clock.ensure_cpus(3)
    with clock.on_cpu(0):
        clock.charge(11, "instr")
        clock.charge(7, "mem")
    with clock.on_cpu(2):
        clock.charge(5, "emc")
    clock.charge(13, "sched")
    for cpu in range(3):
        assert sum(clock.cpu_tags(cpu).values()) == clock.cpu_busy(cpu)
    assert (sum(clock.cpu_tags(SERIAL_LANE).values())
            == clock.cycles - sum(clock.busy_by_cpu.values()))


def test_cpu_tags_returns_a_copy():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(10, "instr")
    snapshot = clock.cpu_tags(0)
    snapshot["instr"] = 999999
    assert clock.cpu_tags(0) == {"instr": 10}


# --------------------------------------------------------------------------- #
# capture: structure, taxonomy, and the conservation verdict
# --------------------------------------------------------------------------- #

def test_capture_maps_tags_to_planes_and_conserves():
    clock = CycleClock()
    clock.ensure_cpus(2)
    with clock.on_cpu(0):
        clock.charge(100, "instr")
        clock.charge(20, "pagefault")
    with clock.on_cpu(1):
        clock.charge(30, "mem")
    clock.charge(9, "scrub")
    ledger = capture_ledger(clock)
    check_ledger(ledger)
    assert ledger["conservation"]["ok"]
    assert ledger["lanes"]["cpu0"]["planes"] == {
        "exec.interpret": 100, "fault": 20}
    assert ledger["lanes"]["cpu1"]["planes"] == {"mmu": 30}
    assert ledger["lanes"]["serial"]["planes"] == {"scrub": 9}
    assert ledger["planes"] == {"exec.interpret": 100, "fault": 20,
                                "mmu": 30, "scrub": 9}


def test_unknown_tags_degrade_to_other_not_silently():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(42, "some-future-tag")
    ledger = capture_ledger(clock)
    assert ledger["lanes"]["cpu0"]["planes"] == {"other": 42}
    assert ledger["conservation"]["ok"]


def test_every_charge_site_tag_is_in_the_taxonomy():
    """Grep the tree for charge tags; each must map to a named plane."""
    import re
    from pathlib import Path
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    pattern = re.compile(
        r"\.(?:charge|count)\(\s*[^,)]+,\s*\n?\s*\"([a-z_-]+)\"")
    tags = set()
    for path in src.rglob("*.py"):
        if "obs" in path.parts:
            continue
        tags |= set(pattern.findall(path.read_text()))
    # count() tags are event names, not cycle tags; keep charge-born ones
    unmapped = {t for t in tags if t not in TAG_PLANES}
    # events counted but never charged are fine; cycle tags must map.
    # Re-grep strictly for charge( calls:
    charge_only = re.compile(
        r"\.charge\((?:[^()]|\([^()]*\))*?,\s*\n?\s*\"([a-z_-]+)\"")
    charged = set()
    for path in src.rglob("*.py"):
        if "obs" in path.parts:
            continue
        charged |= set(charge_only.findall(path.read_text()))
    missing = {t for t in charged if t not in TAG_PLANES}
    assert not missing, f"charge tags without a plane: {sorted(missing)}"


def test_verify_conservation_flags_corruption():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(100, "instr")
    ledger = capture_ledger(clock)
    ledger["lanes"]["cpu0"]["tags"]["instr"] = 99      # corrupt
    verdict = verify_conservation(ledger)
    assert not verdict["ok"]
    assert any("busy ledger" in v for v in verdict["violations"])
    with pytest.raises(ValueError):
        check_ledger(ledger)


def test_superblock_carve_moves_cycles_within_the_exec_plane():
    from repro.hw.testbench import KERNEL_CODE_VA, MicroMachine
    from repro.hw.isa import I
    m = MicroMachine()
    body = [I("movi", "rax", imm=0)] + [I("addi", "rax", imm=1)] * 30 \
        + [I("hlt")]
    m.load_code(KERNEL_CODE_VA, body)
    m.cpu.rip = KERNEL_CODE_VA
    m.cpu.run(deliver_faults=False)
    assert m.cpu.tcache.sb_cycles > 0
    ledger = capture_ledger(m.clock, m)
    check_ledger(ledger)
    planes = ledger["lanes"]["cpu0"]["planes"]
    assert planes["exec.superblock"] == m.cpu.tcache.sb_cycles
    # the carve never changes the lane total: instr tag == carve + rest
    tags = ledger["lanes"]["cpu0"]["tags"]
    assert (planes.get("exec.interpret", 0) + planes["exec.superblock"]
            == tags["instr"])
    assert ledger["conservation"]["ok"]
    assert ledger["translation"]["superblock_coverage"] > 0


def test_interpreted_run_has_zero_superblock_plane():
    from repro.hw.testbench import KERNEL_CODE_VA, MicroMachine
    from repro.hw.isa import I
    m = MicroMachine()
    m.cpu.tcache.enabled = False
    body = [I("movi", "rax", imm=0)] + [I("addi", "rax", imm=1)] * 30 \
        + [I("hlt")]
    m.load_code(KERNEL_CODE_VA, body)
    m.cpu.rip = KERNEL_CODE_VA
    m.cpu.run(deliver_faults=False)
    ledger = capture_ledger(m.clock, m)
    planes = ledger["lanes"]["cpu0"]["planes"]
    assert "exec.superblock" not in planes
    assert planes["exec.interpret"] > 0
    assert ledger["conservation"]["ok"]


# --------------------------------------------------------------------------- #
# fleet-level: seeded 1/2/4-core runs, all obs planes armed
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_fleet_ledger_conserves_with_all_obs_planes_armed(n_cpus):
    from repro.fleet.scheduler import SloConfig
    report, system = run_fleet(n_cpus=n_cpus, certificates=True,
                               slo=SloConfig(), anomaly=True,
                               flight=True, **SMP_PARAMS)
    ledger = report.ledger
    check_ledger(ledger)
    assert ledger["conservation"]["ok"], ledger["conservation"]
    clock = system.machine.clock
    # plane sums == the clock's own ledgers, bit-exact
    for cpu in range(len(clock.per_cpu)):
        lane = ledger["lanes"].get(f"cpu{cpu}", {"planes": {}})
        assert sum(lane["planes"].values()) == clock.cpu_busy(cpu)
    total = sum(sum(lane["tags"].values())
                for lane in ledger["lanes"].values())
    assert total == clock.cycles
    assert ledger["wall_cycles"] == clock.wall_cycles
    # obs armed everywhere, yet the obs plane spent nothing (rule D2)
    assert ledger["planes"].get("obs", 0) == 0
    assert ledger["obs_cycles"] == 0


def stepped_fleet(**kwargs):
    """``run_fleet(**kwargs)`` driven one scheduler round at a time."""
    fleet = build_fleet(**kwargs)
    for session in fleet.sessions:
        fleet.scheduler.submit(session)
    while fleet.scheduler.active:
        fleet.scheduler.step()
    return fleet.report(), fleet.system


@pytest.mark.parametrize("n_cpus,stepped", [
    *(pytest.param(n, False, id=str(n)) for n in sorted(SMP_PINNED)),
    *(pytest.param(n, True, id=f"stepped-{n}") for n in sorted(SMP_PINNED)),
])
def test_pinned_digests_survive_ledger_capture(n_cpus, stepped):
    drive = stepped_fleet if stepped else run_fleet
    report, system = drive(n_cpus=n_cpus, **SMP_PARAMS)
    if stepped:
        # report() closes the drain the same way after single steps as
        # after run_fleet's whole run(sessions): one audit chain and one
        # Prometheus text
        whole, whole_system = run_fleet(n_cpus=n_cpus, **SMP_PARAMS)
        assert report.audit_head == whole.audit_head
        assert (prometheus_text(system.machine.clock)
                == prometheus_text(whole_system.machine.clock))
    assert report.ledger and report.ledger["conservation"]["ok"]
    assert report.digest() == SMP_PINNED[n_cpus]
    # the simulated-drift pin: a cycle that moves plane fails here by name
    assert report.ledger["planes"] == SMP_PLANES
    if n_cpus == 2:
        # page tables, owner tags and frame bytes: what the report leaves out
        assert machine_state_digest(system) == SMP_STATE_PINNED
    # every byte the host saw, the handshakes' public values included
    assert wire_digest(system) == SMP_WIRE_PINNED[n_cpus]
    # ledger and translation ride in to_dict() but not the preimage
    assert "ledger" not in report._base_dict()
    assert "translation" not in report._base_dict()
    assert "ledger" in report.to_dict()


def test_translation_summary_surfaces_in_fleet_report():
    report, system = run_fleet(n_cpus=2, **SMP_PARAMS)
    summary = report.ledger["translation"]
    assert summary == {**system.machine.cpu.tcache.stats(),
                       "superblock_coverage": summary["superblock_coverage"]}
    assert report.to_dict()["ledger"]["translation"] == summary


def test_flight_dump_embeds_a_ledger_snapshot():
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.schema import check_flight_dump
    clock = CycleClock()
    clock.ensure_cpus(2)
    recorder = FlightRecorder(clock)
    clock.tracer = recorder
    clock.metrics = MetricsRegistry()
    with clock.on_cpu(0):
        with recorder.span("work", cat="test"):
            clock.charge(500, "instr")
    recorder.trigger("test", "ledger snapshot")
    dump = recorder.dumps[0].to_dict()
    check_flight_dump(dump)
    assert dump["ledger"]["conservation"]["ok"]
    assert dump["ledger"]["lanes"]["cpu0"]["planes"] == {
        "exec.interpret": 500}


def test_translation_summary_handles_machines_without_counters():
    assert translation_summary(object()) == {
        "sb_exec": 0, "sb_builds": 0, "sb_hits": 0, "sb_cycles": 0,
        "superblock_coverage": 0.0}

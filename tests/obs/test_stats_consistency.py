"""MonitorStats is a derived view: it can never diverge (satellite b)."""

import pytest

from repro.core import erebor_boot
from repro.core.monitor import MonitorStats
from repro.hw.cycles import Cost
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    return erebor_boot(CvmMachine(MachineConfig(memory_bytes=512 * MIB)),
                       cma_bytes=32 * MIB)


def test_stats_mirror_clock_events(system):
    monitor = system.monitor
    clock = system.machine.clock
    for _ in range(5):
        monitor.charge_emc(Cost.VALIDATE_MMU, kind="mmu")
    assert monitor.stats.emc_calls == clock.events["emc"]
    before = monitor.stats.emc_calls
    # mutating the single source of truth is immediately visible
    clock.count("emc")
    assert monitor.stats.emc_calls == before + 1 == clock.events["emc"]


def test_stats_cover_every_lifecycle_counter(system):
    monitor = system.monitor
    clock = system.machine.clock
    sandbox = monitor.create_sandbox("s", confined_budget=4 * MIB)
    sandbox.declare_confined(1 * MIB)
    sandbox.kill("test")
    assert monitor.stats.sandboxes_created == clock.events["sandbox_created"] == 1
    assert monitor.stats.sandboxes_killed == clock.events["sandbox_killed"] == 1
    assert monitor.stats.verified_code_blobs == clock.events["verified_code_blob"]
    assert monitor.stats.verified_code_blobs > 0     # kernel boot verified
    as_dict = monitor.stats.as_dict()
    assert set(as_dict) == set(MonitorStats._FIELDS)
    assert as_dict["sandboxes_killed"] == 1


def test_stats_reject_unknown_fields(system):
    with pytest.raises(AttributeError):
        system.monitor.stats.nonsense


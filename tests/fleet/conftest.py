"""Shared fixtures for the fleet tests: a booted CVM + a sealed template,
and the bare seeded llama fleet per core count.

``helloworld`` (1 MiB heap, no common region) keeps captures cheap; the
llama-shaped sharing numbers are pinned in ``benchmarks/bench_fleet.py``.
"""

import pytest

from repro.apps.base import workload as make_workload
from repro.core.boot import erebor_boot
from repro.fleet import SandboxTemplate, run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS
from repro.obs.metrics import MetricsRegistry
from repro.vm import CvmMachine, MachineConfig, MIB


def build_system(memory_bytes=512 * MIB, cma_bytes=128 * MIB, seed=2025):
    machine = CvmMachine(MachineConfig(memory_bytes=memory_bytes, seed=seed))
    machine.clock.metrics = MetricsRegistry()
    return erebor_boot(machine, cma_bytes=cma_bytes)


@pytest.fixture
def system():
    return build_system()


@pytest.fixture
def template(system):
    work = make_workload("helloworld", seed=3)
    return SandboxTemplate.capture(system, work)


@pytest.fixture(scope="session")
def llama_report():
    """``n_cpus -> FleetReport`` of the bare seeded llama fleet.

    Each core count runs once per session: the SMP scaling sweep and the
    feature A/B baseline share the 4-core run.
    """
    reports = {}

    def report(n_cpus):
        if n_cpus not in reports:
            reports[n_cpus], _ = run_fleet(
                **dict(LLAMA_FLEET_PARAMS, n_cpus=n_cpus))
        return reports[n_cpus]

    return report

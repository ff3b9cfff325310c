"""Shared fixtures for the fleet tests: a booted CVM + a sealed template,
and the bare seeded llama fleet per core count with its machine state
and wire digest.

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
from tests.machine_state import machine_state_digest, wire_digest


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
def llama_run():
    """``n_cpus -> (FleetReport, machine-state digest, wire digest)`` of
    the bare seeded llama fleet.

    Each core count runs once per session: the SMP scaling sweep, the
    pins and the feature A/B baseline share the 4-core run.
    """
    runs = {}

    def run(n_cpus):
        if n_cpus not in runs:
            report, system = run_fleet(
                **dict(LLAMA_FLEET_PARAMS, n_cpus=n_cpus))
            runs[n_cpus] = (report, machine_state_digest(system),
                            wire_digest(system))
        return runs[n_cpus]

    return run


@pytest.fixture(scope="session")
def llama_report(llama_run):
    """``n_cpus -> FleetReport`` of the bare seeded llama fleet."""
    return lambda n_cpus: llama_run(n_cpus)[0]

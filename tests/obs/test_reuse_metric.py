"""Pin: every warm reset increments ``erebor_sandbox_reuse_total{sandbox}``.

The fleet's pool-utilization dashboards key on this counter; it must tick
exactly once per ``reset_for_reuse`` with the sandbox id as its label.
"""

from repro.core.boot import erebor_boot
from repro.obs.metrics import (
    MetricsRegistry,
    metrics_snapshot,
    snapshot_counter_total,
)
from repro.vm import CvmMachine, MachineConfig, MIB


def test_reset_for_reuse_counts_once_per_reuse():
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    machine.clock.metrics = MetricsRegistry()
    system = erebor_boot(machine, cma_bytes=32 * MIB)
    sandbox = system.monitor.create_sandbox("reuse-probe",
                                            confined_budget=2 * MIB)
    sandbox.declare_confined(512 * 1024)

    def reuses(**match):
        return snapshot_counter_total(metrics_snapshot(machine.clock),
                                      "erebor_sandbox_reuse_total", **match)

    assert reuses(sandbox=sandbox.sandbox_id) == 0
    sandbox.reset_for_reuse()
    sandbox.reset_for_reuse()
    assert reuses(sandbox=sandbox.sandbox_id) == 2
    # the label keeps per-sandbox series distinct
    other = system.monitor.create_sandbox("other", confined_budget=2 * MIB)
    other.declare_confined(256 * 1024)
    other.reset_for_reuse()
    assert reuses(sandbox=other.sandbox_id) == 1
    assert reuses() == 3

"""Observed benchmark runs: workload execution with obs attached.

:func:`run_observed` drives one ``(workload, setting)`` execution through
the regular :class:`~repro.bench.runner.WorkloadRunner`, but installs a
:class:`~repro.obs.trace.Tracer` and :class:`~repro.obs.metrics.MetricsRegistry`
on the machine's clock the moment the machine is created — before the
first cycle is charged — and wraps the whole run in a single root span.
Because the root opens at cycle 0 and :meth:`Tracer.finish` closes it at
the end, the folded profile attributes *every* simulated cycle to exactly
one call path (the conservation property the profiler tests pin).

:func:`export_bundle` turns an observed run into the self-describing JSON
payload emitted by ``python -m repro.obs`` and validated by
:func:`repro.obs.schema.check_export`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.runner import RunResult, WorkloadRunner
from .metrics import metrics_snapshot
from .trace import DEFAULT_CAPACITY, Tracer


@dataclass
class ObservedRun:
    """One instrumented execution and everything it recorded."""

    workload: str
    setting: str
    tracer: Tracer
    result: RunResult
    clock: object          # the machine's CycleClock
    #: the machine itself, when the harness saw it — lets the budget
    #: ledger carve superblock cycles and attach translation stats
    machine: object = None


def run_observed(workload: str = "helloworld", setting: str = "erebor", *,
                 scale: float = 0.25, seed: int = 2025,
                 capacity: int = DEFAULT_CAPACITY,
                 trace: bool = True, flight: bool = False) -> ObservedRun:
    """Run one workload with tracing + metrics attached; returns the run.

    ``flight=True`` installs a :class:`~repro.obs.flight.FlightRecorder`
    instead of the plain tracer.
    """
    from . import install                      # late: avoid import cycle

    state: dict = {}

    def instrument(machine) -> None:
        tracer, _registry = install(machine.clock, trace=trace,
                                    capacity=capacity, flight=flight)
        if tracer.enabled:
            # keep the root span open for the whole run; finish() closes it
            tracer.span(f"run:{workload}", "run",
                        setting=setting).__enter__()
        state["tracer"] = tracer
        state["clock"] = machine.clock
        state["machine"] = machine

    runner = WorkloadRunner(scale=scale, seed=seed, instrument=instrument)
    result = runner.run(workload, setting)
    tracer = state["tracer"]
    tracer.finish()
    return ObservedRun(workload, setting, tracer, result, state["clock"],
                       state["machine"])


def export_bundle(run: ObservedRun) -> dict:
    """The JSON payload for one observed run (schema-checked in CI)."""
    from .export import trace_json
    from .profile import collapsed_stacks, total_attributed

    if run.tracer.enabled:
        trace = trace_json(run.tracer)
        profile = {
            "total_cycles": total_attributed(run.tracer),
            "collapsed": collapsed_stacks(run.tracer),
        }
    else:
        trace = {"clock": "simulated-cycles", "capacity": 0,
                 "dropped": 0, "events": []}
        profile = {"total_cycles": 0, "collapsed": []}

    from .ledger import capture_ledger

    return {
        "meta": {
            "workload": run.workload,
            "setting": run.setting,
            "cycles": run.clock.cycles,
            "seconds": run.clock.seconds,
            # SMP view: wall clock = furthest-ahead core; per-CPU
            # positions and busy (executing-core) cycles for each core
            "wall_cycles": run.clock.wall_cycles,
            "per_cpu_cycles": list(run.clock.per_cpu),
            "per_cpu_busy": [run.clock.cpu_busy(c)
                             for c in range(len(run.clock.per_cpu))],
            "dropped": trace["dropped"],
            # tamper-evident audit chain head at export time (see
            # core.monitor.verify_audit_chain); "" if nothing audited
            "audit_head": getattr(run.clock, "audit_head", ""),
            # boot-time CFG VerifierReport digest (repro.analysis);
            # "" on scan-only boots
            "cfg_report_digest": getattr(run.clock, "cfg_report_digest",
                                         ""),
            # boot-time dataflow DataflowReport digest (V8-V10);
            # "" when the plane is off
            "dataflow_report_digest": getattr(run.clock,
                                              "dataflow_report_digest", ""),
        },
        "trace": trace,
        "metrics": metrics_snapshot(run.clock),
        "profile": profile,
        # plane-attribution budget: conservation-checked, read-only on
        # the clock, and outside every digest preimage
        "ledger": capture_ledger(run.clock, run.machine),
    }

"""Deterministic load generator and the top-level fleet driver.

:class:`LoadGenerator` derives every client identity, key seed, and
request payload from one integer seed (no wall-clock, no ambient RNG), so
two runs with the same parameters produce byte-identical
:class:`FleetReport` JSON — the property the determinism tests and the CI
smoke job pin with a digest comparison.

:func:`build_fleet` composes the §9.2 story: boot a CVM, cold boot +
seal a template, stand up a warm pool, and seed N attested clients × M
requests behind admission and the scheduler. :meth:`Fleet.report`
accounts cold vs fork vs warm start cycles and per-client marginal
memory against the unikernel-per-client baseline; :func:`run_fleet`
does both in one call.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

from ..apps.base import workload as make_workload
from ..baselines.unikernel import UNIKERNEL_BASE_BYTES, unikernel_footprint
from ..core.boot import EreborSystem, erebor_boot
from ..hw.cycles import CPU_FREQ_HZ
from ..obs.trace import REQUEST_TRACE_CAPACITY, Tracer, gc_batched_recording
from ..vm import CvmMachine, MachineConfig, MIB
from .admission import AdmissionConfig, AdmissionController
from .pool import PoolConfig, WarmPool
from .scheduler import ClientSession, FleetScheduler
from .template import SandboxTemplate


class LoadGenerator:
    """Seeded client population: identities, payloads, per-client secrets."""

    #: seeded random bytes appended to every request payload
    FILLER_BYTES = 24

    def __init__(self, *, clients: int, requests: int, seed: int = 2025,
                 tenants: int = 2):
        self.clients = clients
        self.requests = requests
        self.seed = seed
        self.tenants = max(tenants, 1)

    def sessions(self) -> list[ClientSession]:
        rng = random.Random(self.seed)
        out: list[ClientSession] = []
        for i in range(self.clients):
            secret = (f"client-{i}-secret-"
                      f"{rng.getrandbits(64):016x}").encode()
            payloads = [
                secret + b"|req-%d|" % j
                + bytes(rng.randrange(256) for _ in range(self.FILLER_BYTES))
                for j in range(self.requests)
            ]
            out.append(ClientSession(
                name=f"client-{i}", tenant=f"tenant-{i % self.tenants}",
                seed=rng.randrange(1 << 30), payloads=payloads,
                secret=secret))
        return out


@dataclass
class FleetReport:
    """Everything one fleet run produced, JSON-able and seed-stable."""

    workload: str
    clients: int
    requests_per_client: int
    pool_size: int
    tenants: int
    seed: int
    scale: float
    cold_start_cycles: int
    fork_start_cycles: list[int]
    warm_start_cycles: list[int]
    counts: dict[str, int]
    outcomes: dict[str, int]
    requests_served: int
    serve_cycles: int
    total_cycles: int
    cow_breaks: int
    scrub_verifications: int
    template_bytes: int
    common_bytes: int
    marginal_bytes_mean: int
    marginal_bytes_max: int
    fleet_bytes: int
    unikernel_bytes: int
    sessions: list[dict] = field(default_factory=list)
    n_cpus: int = 1
    #: wall-clock cycles of the serve phase (max over cores); with one
    #: core this equals ``serve_cycles``, the serial total
    serve_wall_cycles: int = 0
    #: cycles each core spent executing fleet work during the run
    core_busy_cycles: list[int] = field(default_factory=list)
    #: autoscale outcome: grown / retired / peak / final slot counts
    pool_scaling: dict = field(default_factory=dict)
    #: tamper-evident audit chain head + length (see core.monitor)
    audit_head: str = ""
    audit_events: int = 0
    #: SLO / anomaly / flight-recorder summaries (empty = feature off)
    slo: dict = field(default_factory=dict)
    anomaly: dict = field(default_factory=dict)
    flight: dict = field(default_factory=dict)
    #: session name → request trace ID (reqtrace); rides OUTSIDE the
    #: digest preimage like the audit head: the IDs are deterministic
    #: (seed+name) but adding them to `_base_dict` would invalidate every
    #: historical pinned digest for zero information gain
    traces: dict = field(default_factory=dict)
    #: session name → certificate body hash (repro.certs); OUTSIDE the
    #: digest preimage for the same reason — issuance charges no cycles
    #: and the hashes are themselves derived from the run
    certs: dict = field(default_factory=dict)
    #: plane-attribution budget ledger (repro.obs.ledger): where every
    #: simulated cycle went, conservation-verified. OUTSIDE the digest
    #: preimage — capture reads the clock, never moves it
    ledger: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Requests per simulated wall-clock second (SMP-aware)."""
        wall = self.serve_wall_cycles or self.serve_cycles
        if wall <= 0:
            return 0.0
        return self.requests_served / (wall / CPU_FREQ_HZ)

    @property
    def memory_reduction(self) -> float:
        """Fraction of memory the fleet saves vs unikernel-per-client."""
        return 1.0 - self.fleet_bytes / self.unikernel_bytes

    def fork_speedup(self) -> float:
        """Cold boot+init cycles over the mean fork cost."""
        if not self.fork_start_cycles:
            return 0.0
        mean = sum(self.fork_start_cycles) / len(self.fork_start_cycles)
        return self.cold_start_cycles / mean

    def warm_speedup(self) -> float:
        if not self.warm_start_cycles:
            return 0.0
        mean = sum(self.warm_start_cycles) / len(self.warm_start_cycles)
        return self.cold_start_cycles / mean

    def to_dict(self) -> dict:
        out = self._base_dict()
        out["audit"] = {"head": self.audit_head, "events": self.audit_events}
        # observability planes appear only when enabled, so reports from
        # plain runs are byte-identical to pre-SLO-era ones
        if self.slo:
            out["slo"] = dict(self.slo)
        if self.anomaly:
            out["anomaly"] = dict(self.anomaly)
        if self.flight:
            out["flight"] = dict(self.flight)
        if self.traces:
            out["traces"] = dict(self.traces)
        if self.certs:
            out["certs"] = dict(self.certs)
        if self.ledger:
            out["ledger"] = dict(self.ledger)
        return out

    def _base_dict(self) -> dict:
        return {
            "workload": self.workload, "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "pool_size": self.pool_size, "tenants": self.tenants,
            "seed": self.seed, "scale": self.scale,
            "cold_start_cycles": self.cold_start_cycles,
            "fork_start_cycles": self.fork_start_cycles,
            "warm_start_cycles": self.warm_start_cycles,
            "counts": dict(self.counts), "outcomes": dict(self.outcomes),
            "requests_served": self.requests_served,
            "serve_cycles": self.serve_cycles,
            "total_cycles": self.total_cycles,
            "throughput_rps": round(self.throughput_rps, 6),
            "cow_breaks": self.cow_breaks,
            "scrub_verifications": self.scrub_verifications,
            "template_bytes": self.template_bytes,
            "common_bytes": self.common_bytes,
            "marginal_bytes_mean": self.marginal_bytes_mean,
            "marginal_bytes_max": self.marginal_bytes_max,
            "fleet_bytes": self.fleet_bytes,
            "unikernel_bytes": self.unikernel_bytes,
            "memory_reduction": round(self.memory_reduction, 6),
            "n_cpus": self.n_cpus,
            "serve_wall_cycles": self.serve_wall_cycles,
            "core_busy_cycles": list(self.core_busy_cycles),
            "pool_scaling": dict(self.pool_scaling),
            "sessions": self.sessions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """Stable fingerprint: identical seeds must produce identical runs.

        Hashes the execution-shaped sections only — the audit head is
        itself a fingerprint of the same run (chained over every audited
        decision), so it rides in ``to_dict()`` for verification but is
        excluded here to keep historical pinned digests valid.
        """
        canonical = json.dumps(self._base_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Fleet:
    """A booted fleet that has served nothing yet: drive ``scheduler``
    (``submit`` / ``step`` / ``run``) with ``sessions``, then call
    :meth:`report` once."""

    machine: CvmMachine
    system: EreborSystem
    template: SandboxTemplate
    pool: WarmPool
    scheduler: FleetScheduler
    sessions: list[ClientSession]
    #: the spec the report restates (``pool_size``: before autoscaling)
    workload: str
    clients: int
    requests: int
    pool_size: int
    tenants: int
    seed: int
    scale: float
    certify: bool
    #: serve-window start marks
    serve_t0: int
    wall_t0: int
    busy_t0: list[int]
    sb_t0: int
    #: the open :class:`gc_batched_recording` region (capture to drain)
    recording: ExitStack = field(repr=False)
    #: session name → certificate, issued by :meth:`report` if ``certify``
    certificates: dict = field(default_factory=dict)

    def report(self) -> FleetReport:
        """Close the drain, build the report and issue the certificates."""
        machine, system, pool, scheduler = (
            self.machine, self.system, self.pool, self.scheduler)
        clock = machine.clock
        # rejects whatever is still queued and sets the final gauges; after
        # a full run(sessions) it changes nothing
        finished = scheduler.run([])
        serve_cycles = clock.cycles - self.serve_t0
        serve_wall_cycles = clock.wall_cycles - self.wall_t0
        # host-plane cache statistics: exported as metrics only, never
        # part of the report digest preimage
        sb_exec = machine.cpu.tcache.sb_exec
        if sb_exec > self.sb_t0:
            clock.metrics.inc("erebor_sim_superblock_exec_total",
                              sb_exec - self.sb_t0)
        core_busy = [clock.cpu_busy(c) - self.busy_t0[c]
                     for c in range(scheduler.n_cpus)]
        self.recording.close()

        usage = system.monitor.phys.usage_by_owner()
        template_bytes = sum(v for k, v in usage.items()
                             if k.startswith("template:"))
        common_bytes = sum(v for k, v in usage.items()
                           if k.startswith("common:"))
        peaks = [s.private_bytes_peak for s in finished
                 if s.outcome == "completed"]
        marginal_mean = int(sum(peaks) / len(peaks)) if peaks else 0
        marginal_max = max(peaks, default=0)
        # steady-state fleet: one shared guest image, one template, one
        # common copy, plus a private delta per concurrently-live instance
        fleet_bytes = (UNIKERNEL_BASE_BYTES + template_bytes + common_bytes
                       + self.pool_size * marginal_mean)
        unikernel_bytes = unikernel_footprint(self.pool_size,
                                              self.template.confined_bytes,
                                              common_bytes)

        outcomes: dict[str, int] = {}
        for s in finished:
            outcomes[s.outcome] = outcomes.get(s.outcome, 0) + 1
        report = FleetReport(
            workload=self.workload, clients=self.clients,
            requests_per_client=self.requests, pool_size=self.pool_size,
            tenants=self.tenants, seed=self.seed, scale=self.scale,
            cold_start_cycles=self.template.cold_start_cycles,
            fork_start_cycles=list(pool.fork_cycles),
            warm_start_cycles=list(pool.warm_reset_cycles),
            counts=dict(scheduler.counts), outcomes=outcomes,
            requests_served=scheduler.requests_served,
            serve_cycles=serve_cycles, total_cycles=clock.cycles,
            cow_breaks=clock.events.get("cow_break", 0),
            scrub_verifications=pool.scrub_verifications,
            template_bytes=template_bytes, common_bytes=common_bytes,
            marginal_bytes_mean=marginal_mean,
            marginal_bytes_max=marginal_max,
            fleet_bytes=fleet_bytes, unikernel_bytes=unikernel_bytes,
            sessions=[s.summary() for s in finished],
            n_cpus=scheduler.n_cpus, serve_wall_cycles=serve_wall_cycles,
            core_busy_cycles=core_busy,
            pool_scaling={"grown": pool.grown, "retired": pool.retired,
                          "peak": pool.peak_size, "final": len(pool.slots)},
            audit_head=system.monitor.audit_head,
            audit_events=system.monitor.audit_seq,
            slo=scheduler.slo.summary() if scheduler.slo else {},
            anomaly=scheduler.anomaly.summary() if scheduler.anomaly else {},
            # every submitted session minted an ID (even rejected ones), so
            # each report row resolves to its causal span tree by name
            traces={s.name: s.trace_id for s in finished if s.trace_id},
        )
        recorder = clock.tracer
        if getattr(recorder, "dumps", None) is not None:
            report.flight = {"triggers": recorder.triggers,
                             "dumps": len(recorder.dumps)}
        # plane-attribution budget (translation-cache effectiveness
        # included): read-only on the clock/counters, outside the digest
        # preimage
        from ..obs.ledger import capture_ledger
        report.ledger = capture_ledger(clock, machine)
        if self.certify:
            from ..certs.issue import CertificateIssuer
            issuer = CertificateIssuer(system, workload=self.workload,
                                       fleet_seed=self.seed)
            self.certificates = issuer.issue_all(finished,
                                                 traces=report.traces)
            report.certs = {name: cert["body_sha256"]
                            for name, cert in self.certificates.items()}
        return report


def build_fleet(*, workload: str = "llama.cpp", clients: int = 4,
                requests: int = 2, pool_size: int = 2, tenants: int = 2,
                seed: int = 2025, scale: float = 0.1, n_cpus: int = 1,
                admission: AdmissionConfig | None = None,
                pool_config: PoolConfig | None = None,
                memory_bytes: int = 768 * MIB, cma_bytes: int = 256 * MIB,
                instrument=None, slo=None, anomaly: bool = False,
                flight: bool = False, certificates: bool = False,
                features=None, static_budget_admission: bool = False
                ) -> Fleet:
    """Compose one multi-tenant fleet on a freshly booted CVM; serve nothing.

    ``instrument`` is called with the freshly built machine before any
    cycle is charged (the ``repro.obs`` attach point). ``n_cpus`` spreads
    sessions over that many simulated cores (deterministic at any count);
    pass a full ``pool_config`` to turn on demand-driven pool autoscaling.
    Without ``admission``, the queue holds up to ``clients`` sessions.

    ``slo`` (:class:`~repro.fleet.scheduler.SloConfig`) arms per-tenant
    latency objectives, ``anomaly=True`` the EWMA exit/EMC detectors of
    :class:`~repro.fleet.scheduler.AnomalyMonitor`, and ``flight=True``
    installs an always-on flight recorder that freezes a black-box dump
    on any trigger. All three read the cycle clock but never charge it,
    so enabling them cannot move a seeded digest.

    ``certificates`` makes :meth:`Fleet.report` issue one
    :mod:`repro.certs` execution certificate per admitted session after
    the fleet drains (arming a request tracer here if none is installed)
    into ``fleet.certificates``;
    :func:`~repro.certs.issue.write_certificates` puts the batch on disk
    for offline verification. Issuance charges zero simulated cycles, so
    seeded report digests are identical with it on or off.

    ``features`` (:class:`~repro.core.monitor.EreborFeatures`, the §9
    ablation switches) is passed through to
    :func:`~repro.core.boot.erebor_boot`.

    ``static_budget_admission`` plugs the boot-time V10
    :class:`~repro.analysis.absint.StaticBudget` into a copy of the
    admission config (see :mod:`repro.fleet.admission`; the caller's
    object is not touched): every tenant's EMC quota is clamped to the
    image's proven per-request bound. Requires a dataflow-verified boot.
    """
    import repro.apps  # noqa: F401  (populates the workload registry)

    machine = CvmMachine(MachineConfig(memory_bytes=memory_bytes, seed=seed))
    if instrument is not None:
        instrument(machine)
    clock = machine.clock
    if not clock.metrics.enabled:
        from ..obs.metrics import MetricsRegistry
        clock.metrics = MetricsRegistry()
    if flight and not clock.tracer.enabled:
        from ..obs.flight import FlightRecorder
        clock.tracer = FlightRecorder(clock)
    system = erebor_boot(machine, cma_bytes=cma_bytes, features=features)

    # certificates attach the request's causal span tree: arm a tracer
    # before any fleet work if the caller didn't install one (reading
    # the clock only — arming never moves a seeded digest)
    if certificates and not clock.tracer.enabled:
        clock.tracer = Tracer(clock, capacity=REQUEST_TRACE_CAPACITY)

    # an armed recorder retains one tuple per record; batch the host
    # collector until the drain so it doesn't rescan the ring hundreds
    # of times (host-only tuning — no simulated state is touched)
    with ExitStack() as recording:
        recording.enter_context(gc_batched_recording(clock.tracer.enabled))
        work = make_workload(workload, seed=seed, scale=scale)
        template = SandboxTemplate.capture(system, work)
        pool = WarmPool(system, template,
                        pool_config or PoolConfig(size=pool_size))
        config = admission or AdmissionConfig(queue_depth=clients)
        if static_budget_admission:
            proof = system.monitor.kernel_dataflow_report
            if proof is None:
                raise ValueError(
                    "static_budget_admission requires a dataflow-verified "
                    "boot (EreborFeatures.dataflow_verifier)")
            config = replace(config, static_budget=proof.budget)
        scheduler = FleetScheduler(system, pool, work,
                                   AdmissionController(config), n_cpus=n_cpus,
                                   slo=slo, anomaly=anomaly)
        sessions = LoadGenerator(clients=clients, requests=requests,
                                 seed=seed, tenants=tenants).sessions()
        return Fleet(
            machine=machine, system=system, template=template, pool=pool,
            scheduler=scheduler, sessions=sessions, workload=workload,
            clients=clients, requests=requests, pool_size=len(pool.slots),
            tenants=tenants, seed=seed, scale=scale, certify=certificates,
            serve_t0=clock.cycles, wall_t0=clock.wall_cycles,
            busy_t0=[clock.cpu_busy(c) for c in range(scheduler.n_cpus)],
            sb_t0=machine.cpu.tcache.sb_exec,
            recording=recording.pop_all())


def run_fleet(**kwargs) -> tuple[FleetReport, EreborSystem]:
    """Build, serve and report one fleet; returns ``(report, system)``."""
    fleet = build_fleet(**kwargs)
    fleet.scheduler.run(fleet.sessions)
    return fleet.report(), fleet.system

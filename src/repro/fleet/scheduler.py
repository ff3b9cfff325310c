"""Fleet scheduler: attested sessions interleaved across N simulated cores.

Each admitted session is a *real* Erebor session — ephemeral-DH
handshake, quote verification against the published measurement, sealed
records through the untrusted proxy — bound to one pool slot and placed
on one logical CPU by a least-loaded policy. Every scheduling round
interleaves one request per active session, core by core: all the work a
request triggers (gate transitions, EMC validation, CoW faults, channel
crypto, scrub-on-release) is charged to the executing core's cycle
counter, so sessions on different cores overlap on the machine's wall
clock and fleet throughput scales with ``n_cpus``. Commit order is
core-ordered (core 0's sessions first, then core 1's, ...), which keeps
seeded runs byte-identical at any core count; ordering within a core is
placement order, and the wait queue drains FIFO.

Quota enforcement has two halves: admission (pre-slot, in
:mod:`repro.fleet.admission`, charged against each tenant's *actual*
private CoW footprint, not the template's virtual size) and the post-hoc
EMC allowance — a request that drives more EMC gate invocations than its
tenant's ``max_emc_per_request`` gets the session *evicted*: the sandbox
is killed (which scrubs it), the slot replaced by a fresh fork. EMC use
is metered from the executing core's private event ledger, so concurrent
sessions never race on a shared counter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from ..client import RemoteClient
from ..core.boot import published_measurement
from ..core.channel import SecureChannel, UntrustedProxy
from ..core.mitigations import MitigationConfig
from ..obs.metrics import EwmaDetector, WindowedHistogram, label_key
from ..obs.reqtrace import mint_trace_id
from .admission import AdmissionController, Decision
from .pool import PoolSlot, WarmPool


@dataclass
class ClientSession:
    """One client's workload: identity, secrets, and progress."""

    name: str
    tenant: str
    seed: int
    payloads: list[bytes]
    #: distinctive plaintext the scrub verifier scans frames for
    secret: bytes = b""
    outcome: str | None = None    # completed | rejected | evicted
    reason: str = ""
    served: int = 0
    start_kind: str = ""
    start_cycles: int = 0
    session_cycles: int = 0
    emc_used: int = 0
    private_bytes_peak: int = 0
    core: int = -1                # logical CPU the session is placed on
    responses: list[bytes] = field(default_factory=list)
    slot: PoolSlot | None = None
    channel: SecureChannel | None = None
    client: RemoteClient | None = None
    _t0: int = 0
    #: serial-clock cycle the session was submitted (SLO queue-wait base)
    submit_cycle: int = 0
    #: deterministic request trace ID minted at admission (reqtrace).
    #: Deliberately NOT part of :meth:`summary`: the report digest
    #: preimage must stay byte-identical whether tracing is armed or not,
    #: so IDs ride in ``FleetReport.to_dict()["traces"]`` outside it.
    trace_id: str = ""
    #: execution-certificate evidence anchors (repro.certs). Like
    #: ``trace_id``, none of these enter :meth:`summary`: certificates
    #: ride outside the report digest preimage.
    sandbox_id: int = -1
    #: first seq of the session's audit window: snapshotted when the
    #: session is bound to a slot, before ``pool.acquire()``, so the
    #: window opens with the slot's own fork/lock events and no event of
    #: a session served while this one queued falls inside it
    audit_seq_start: int = 0
    #: the window's events, ``[audit_seq_start, seq_end)``, held at slot
    #: release (after the scrub audit) from the ring's tail; its last
    #: event carries ``seq_end - 1`` and the committed head. Shorter than
    #: the window when the ring evicted part of it before close
    audit_window: list = field(default_factory=list)
    #: the pool's C8 scrub record returned by ``WarmPool.release``
    scrub_record: dict | None = None

    def summary(self) -> dict:
        return {
            "name": self.name, "tenant": self.tenant,
            "outcome": self.outcome, "reason": self.reason,
            "served": self.served, "start_kind": self.start_kind,
            "start_cycles": self.start_cycles,
            "session_cycles": self.session_cycles,
            "emc_used": self.emc_used,
            "private_bytes_peak": self.private_bytes_peak,
            "core": self.core,
        }


@dataclass
class SloConfig:
    """Per-tenant latency objectives in simulated cycles (None = no SLO).

    ``queue_wait`` and ``service`` are judged at p95, ``e2e`` (submit to
    finish, queue included) at p99, each over the series' last
    :data:`~repro.obs.metrics.WINDOW_SAMPLES` samples, so a cold start
    ages out once that many requests have followed it, however long
    each request runs.
    """

    queue_wait_p95: int | None = None
    service_p95: int | None = None
    e2e_p99: int | None = None


class SloMonitor:
    """Watches per-tenant latency percentiles; emits breach events.

    Keeps one deterministic :class:`WindowedHistogram` (the series'
    last samples) per ``(tenant, metric)`` series, keyed by its label
    set. The same objects are the metrics registry's
    ``erebor_fleet_latency_cycles`` windowed series: the registry's
    snapshot reads them, so each sample is stored once, and the
    decisions need no live registry. The first breach of each
    ``(tenant, metric)`` pair raises a trace event, bumps the breach
    counter, and fires the flight-recorder trigger; later samples keep
    counting but don't re-dump.
    """

    #: the registry's name for the windowed latency series
    SERIES = "erebor_fleet_latency_cycles"

    #: metric → (config attribute, quantile, label)
    RULES = {
        "queue_wait": ("queue_wait_p95", 0.95, "p95"),
        "service": ("service_p95", 0.95, "p95"),
        "e2e": ("e2e_p99", 0.99, "p99"),
    }

    #: quantiles are meaningless over a couple of samples; hold fire
    MIN_SAMPLES = 4

    def __init__(self, clock, config: SloConfig):
        self.clock = clock
        self.config = config
        #: label key (``metric=…,tenant=…``) → that series' histogram
        self.hists: dict[str, WindowedHistogram] = {}
        self.breaches: list[dict] = []
        self._breached: set[str] = set()
        self.samples = 0
        metrics = clock.metrics
        metrics.describe(self.SERIES,
                         "Per-tenant fleet latency (windowed, cycles)")
        if metrics.enabled:
            metrics.windowed[self.SERIES] = self.hists

    def observe(self, tenant: str, metric: str, value: int) -> None:
        self.samples += 1
        key = label_key({"tenant": tenant, "metric": metric})
        hist = self.hists.get(key)
        if hist is None:
            hist = self.hists[key] = WindowedHistogram()
        hist.observe(value)
        attr, q, label = self.RULES[metric]
        threshold = getattr(self.config, attr)
        if threshold is None or hist.count < self.MIN_SAMPLES:
            return
        observed = hist.quantile(q)
        if observed is None or observed <= threshold:
            return
        self.clock.metrics.inc("erebor_fleet_slo_breaches_total",
                               tenant=tenant, metric=metric)
        # the request whose sample crossed the line is the exemplar: the
        # on-call flow resolves it to a full causal span tree (reqtrace)
        trace_id = self.clock.tracer.current_trace or ""
        self.clock.metrics.exemplar("erebor_fleet_slo_breaches_total",
                                    trace_id, tenant=tenant, metric=metric)
        if key in self._breached:
            return
        self._breached.add(key)
        breach = {"tenant": tenant, "metric": metric, "quantile": label,
                  "observed": observed, "threshold": threshold,
                  "cycle": self.clock.cycles, "trace_id": trace_id}
        self.breaches.append(breach)
        self.clock.tracer.event("slo:breach", "slo", tenant=tenant,
                                metric=metric, quantile=label,
                                observed=observed, threshold=threshold)
        self.clock.tracer.trigger(
            "slo_breach",
            f"{tenant}/{metric} {label}={observed} > {threshold}"
            + (f" [trace {trace_id}]" if trace_id else ""))

    def summary(self) -> dict:
        return {"samples": self.samples,
                "breaches": [dict(b) for b in self.breaches]}


class AnomalyMonitor:
    """Per-tenant EWMA baselines over exit and EMC rates.

    Every served request feeds two detectors keyed by tenant — sandbox
    exits per request and EMCs per request. A sample far above a
    tenant's own baseline raises an alert and, on the tenant's first
    alert, arms its §12 mitigation knobs (:attr:`MITIGATION`) through
    the monitor's :class:`~repro.core.mitigations.TenantMitigationRouter`
    — the ROADMAP side-channel-budget item's sensing layer. Other tenants keep
    the default (usually absent) engine, so their cycle accounting never
    pays for a noisy neighbour.
    """

    #: the knobs armed (per tenant, via the monitor's mitigation router)
    MITIGATION = MitigationConfig(flush_on_exit=True,
                                  exit_rate_limit_per_sec=2000)

    def __init__(self, clock, monitor):
        self.clock = clock
        self.monitor = monitor
        self.detectors: dict[tuple[str, str], EwmaDetector] = {}
        self.alerts: list[dict] = []
        self.armed: list[str] = []

    def observe_request(self, tenant: str, *, exits: int, emc: int) -> None:
        for metric, value in (("exit_rate", exits), ("emc_rate", emc)):
            key = (tenant, metric)
            det = self.detectors.get(key)
            if det is None:
                det = self.detectors[key] = EwmaDetector()
            if det.update(value):
                self._alert(tenant, metric, value, det)

    def _alert(self, tenant: str, metric: str, value: int,
               det: EwmaDetector) -> None:
        self.alerts.append({"tenant": tenant, "metric": metric,
                            "value": value,
                            "baseline": round(det.mean, 6),
                            "cycle": self.clock.cycles})
        self.clock.tracer.event("anomaly:alert", "anomaly",
                                tenant=tenant, metric=metric, value=value,
                                baseline=round(det.mean, 6))
        self.clock.metrics.inc("erebor_fleet_anomalies_total",
                               tenant=tenant, metric=metric)
        if tenant not in self.armed:
            router = self.monitor.mitigation_router()
            router.arm(tenant, self.MITIGATION)
            self.armed.append(tenant)
            self.clock.tracer.event("anomaly:arm", "anomaly",
                                    tenant=tenant, metric=metric)
            self.monitor.audit(
                "anomaly", f"armed §12 mitigations for tenant {tenant} "
                f"({metric}={value} vs baseline {det.mean:.1f})")

    def summary(self) -> dict:
        return {"alerts": [dict(a) for a in self.alerts],
                "armed": list(self.armed)}


class FleetScheduler:
    """Drives N sessions through M pool slots over ``n_cpus`` cores."""

    def __init__(self, system, pool: WarmPool, work,
                 controller: AdmissionController | None = None,
                 *, n_cpus: int = 1, slo: SloConfig | None = None,
                 anomaly: bool = False):
        self.system = system
        self.monitor = system.monitor
        self.kernel = system.kernel
        self.clock = system.machine.clock
        self.pool = pool
        self.work = work
        self.controller = controller or AdmissionController()
        self.proxy = UntrustedProxy(self.monitor)
        self.n_cpus = max(1, n_cpus)
        self.clock.ensure_cpus(self.n_cpus)
        self.clock.metrics.describe(
            "erebor_fleet_core_busy_cycles",
            "Cycles each logical CPU spent executing fleet work")
        self.queue: deque[ClientSession] = deque()
        self.active: list[ClientSession] = []
        #: placement: sessions currently running on each logical CPU
        self.cores: list[list[ClientSession]] = [
            [] for _ in range(self.n_cpus)]
        self.finished: list[ClientSession] = []
        self.requests_served = 0
        self.rounds = 0
        self.counts = {"admit": 0, "queue": 0, "reject": 0, "evict": 0}
        #: per-tenant SLO / anomaly planes (None = feature off: no
        #: histograms allocated, no extra metrics series, digests frozen)
        self.slo = SloMonitor(self.clock, slo) if slo else None
        self.anomaly = (AnomalyMonitor(self.clock, self.monitor)
                        if anomaly else None)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _active_by_tenant(self) -> dict[str, tuple[int, int]]:
        """Tenant -> (live sessions, *actual* private bytes in use).

        Memory quotas charge what a slot really holds — the CoW pages the
        session dirtied (plus pinned confined frames) — not the
        template's full virtual image, so a read-mostly tenant is not
        billed for pages it physically shares with the template.
        """
        per: dict[str, tuple[int, int]] = {}
        for s in self.active:
            n, b = per.get(s.tenant, (0, 0))
            per[s.tenant] = (n + 1, b + s.slot.instance.private_bytes)
        return per

    def submit(self, session: ClientSession) -> Decision:
        """Route one session: admit to a slot, queue it, or turn it away.

        Admission is where the session's request trace ID is minted —
        deterministically, from the session's seed and name, whether or
        not a tracer is armed — and bound over the decision, so the
        causal tree starts at the very first thing that happened to the
        request.
        """
        session.submit_cycle = self.clock.cycles
        if not session.trace_id:
            session.trace_id = mint_trace_id(session.seed, session.name)
        with self.clock.tracer.bind(session.trace_id):
            with self.clock.tracer.span("fleet:admit", "fleet",
                                        session=session.name,
                                        tenant=session.tenant):
                decision = self.controller.decide(
                    session.tenant,
                    requested_bytes=self.pool.template.confined_bytes,
                    active=self._active_by_tenant(),
                    queued=len(self.queue),
                    free_slots=len(self.pool.free_slots()),
                    trace_id=session.trace_id)
            self.counts[decision.action] = \
                self.counts.get(decision.action, 0) + 1
            metrics = self.clock.metrics
            metrics.inc("erebor_fleet_admissions_total",
                        action=decision.action, tenant=session.tenant)
            self.clock.tracer.event(f"fleet:{decision.action}", "fleet",
                                    session=session.name,
                                    tenant=session.tenant,
                                    reason=decision.reason)
            if decision.action == "admit":
                self._start(session)
            elif decision.action == "queue":
                session.reason = decision.reason
                self.queue.append(session)
                metrics.set_gauge("erebor_fleet_queue_depth",
                                  len(self.queue))
            else:
                self._reject(session, decision.reason)
        return decision

    def _reject(self, session: ClientSession, reason: str) -> None:
        session.outcome = "rejected"
        session.reason = reason
        self.finished.append(session)
        self.clock.metrics.inc("erebor_fleet_sessions_total",
                               tenant=session.tenant, outcome="rejected")
        self.clock.metrics.inc("erebor_fleet_rejections_total",
                               tenant=session.tenant, reason=reason)

    def _place(self) -> int:
        """Least-loaded core: fewest live sessions, then the core whose
        cycle counter trails, then lowest id (deterministic tie-break)."""
        return min(
            range(self.n_cpus),
            key=lambda c: (len(self.cores[c]), self.clock.cpu_cycles(c), c))

    def _start(self, session: ClientSession) -> None:
        with self.clock.tracer.bind(session.trace_id or None):
            self._start_bound(session)

    def _start_bound(self, session: ClientSession) -> None:
        session.audit_seq_start = self.monitor.audit_seq
        slot = self.pool.acquire()
        assert slot is not None, "admission admitted with no free slot"
        core = self._place()
        session.slot = slot
        session.core = core
        session.start_kind = slot.instance.start_kind
        session.start_cycles = slot.instance.start_cycles
        session._t0 = self.clock.cycles
        # the sandbox carries its tenant so per-tenant mitigation routing
        # (and any future tenant-keyed policy) can see it on the exit path
        slot.instance.sandbox.tenant = session.tenant
        # ... and the request trace context, so channel-side records and
        # the AEAD trace binding see it; scrub-on-release clears it (C8)
        slot.instance.sandbox.trace_context = session.trace_id or None
        session.sandbox_id = slot.instance.sandbox.sandbox_id
        self.monitor.audit(
            "admit", f"session {session.name} (tenant {session.tenant}) "
            f"bound to sandbox #{session.sandbox_id} core {core}")
        if self.slo is not None:
            self.slo.observe(session.tenant, "queue_wait",
                             self.clock.cycles - session.submit_cycle)
        # causality: this session only became runnable *now* (its slot
        # freed / the admission round happened at the current wall), so
        # a trailing core idles forward before doing the bring-up —
        # otherwise queued work would start in the placed core's past
        # and the wall clock would undercount queue waits
        self.clock.fast_forward(core)
        # session bring-up (channel handshake, quote verification) runs
        # on the placed core, concurrent with other cores' traffic
        with self.clock.on_cpu(core):
            channel = SecureChannel(self.monitor, slot.instance.sandbox)
            client = RemoteClient(self.system.machine.authority,
                                  published_measurement(), seed=session.seed)
            # both ends of the sealed channel authenticate the same trace
            # context (AEAD associated data): a mismatch fails open()
            client.trace_context = session.trace_id or None
            client.connect(self.proxy, channel)
        session.channel, session.client = channel, client
        self.active.append(session)
        self.cores[core].append(session)
        self.clock.tracer.event("fleet:session_start", "fleet",
                                session=session.name,
                                sandbox=slot.instance.sandbox.sandbox_id,
                                start_kind=session.start_kind, core=core)

    # ------------------------------------------------------------------ #
    # the request rounds
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """One scheduling round: every active session serves one request.

        Cores commit in id order and each core serves its sessions in
        placement order — a fixed interleaving, so seeded runs stay
        byte-identical no matter how the wall clock advances.
        """
        self.rounds += 1
        for core in range(self.n_cpus):
            for session in list(self.cores[core]):
                self._step_session(session)
        if self.pool.config.autoscale:
            grown = self.pool.autoscale(len(self.queue))
            if grown:
                self._drain_queue()

    def _step_session(self, session: ClientSession) -> None:
        with self.clock.tracer.bind(session.trace_id or None):
            self._step_session_bound(session)

    def _step_session_bound(self, session: ClientSession) -> None:
        instance = session.slot.instance
        payload = session.payloads[session.served]
        core = session.core
        t0 = self.clock.cycles
        events0 = self.clock.cpu_events(core)
        with self.clock.tracer.span("fleet:request", "fleet",
                                    session=session.name,
                                    tenant=session.tenant,
                                    index=session.served, core=core):
            with self.clock.on_cpu(core):
                session.client.request(self.proxy, session.channel, payload)
                self.kernel.current = instance.libos.task
                request = instance.runtime.recv_input()
                output = self.work.serve(instance.runtime, request)
                blob = session.client.fetch_result(self.proxy,
                                                   session.channel)
        if blob != output:
            raise RuntimeError(f"response mismatch for {session.name}")
        session.responses.append(output)
        session.served += 1
        self.requests_served += 1
        self.monitor.audit(
            "response", f"session {session.name} request "
            f"{session.served}/{len(session.payloads)} "
            f"({len(output)} B) via sandbox #{instance.sandbox.sandbox_id}")
        # EMC metering reads the executing core's private event ledger,
        # so concurrent cores never contend on one shared counter
        events = self.clock.cpu_events(core)
        request_emc = events["emc"] - events0["emc"]
        request_exits = events["sandbox_exit"] - events0["sandbox_exit"]
        session.emc_used += request_emc
        self.clock.metrics.inc("erebor_fleet_requests_total",
                               tenant=session.tenant)
        if self.slo is not None:
            self.slo.observe(session.tenant, "service",
                             self.clock.cycles - t0)
        if self.anomaly is not None:
            self.anomaly.observe_request(session.tenant,
                                         exits=request_exits,
                                         emc=request_emc)
        quota = self.controller.quota_for(session.tenant)
        if request_emc > quota.max_emc_per_request:
            self._evict(session, request_emc)
        elif session.served == len(session.payloads):
            self._finish(session, "completed")

    # ------------------------------------------------------------------ #
    # completion paths
    # ------------------------------------------------------------------ #

    def _finalize(self, session: ClientSession, outcome: str) -> None:
        session.outcome = outcome
        session.session_cycles = self.clock.cycles - session._t0
        session.private_bytes_peak = session.slot.instance.private_bytes
        if self.slo is not None:
            self.slo.observe(session.tenant, "e2e",
                             self.clock.cycles - session.submit_cycle)
        self.active.remove(session)
        self.cores[session.core].remove(session)
        self.finished.append(session)
        self.clock.metrics.inc("erebor_fleet_sessions_total",
                               tenant=session.tenant, outcome=outcome)
        self.clock.metrics.observe("erebor_fleet_session_cycles",
                                   session.session_cycles, outcome=outcome)

    def _evict(self, session: ClientSession, request_emc: int) -> None:
        """Post-hoc EMC-rate enforcement: kill the sandbox, drop the slot."""
        self.counts["evict"] += 1
        session.reason = "emc-quota"
        sandbox = session.slot.instance.sandbox
        self._finalize(session, "evicted")
        self.clock.tracer.event("fleet:evict", "fleet",
                                session=session.name, tenant=session.tenant,
                                emc=request_emc)
        self.clock.metrics.inc("erebor_fleet_evictions_total",
                               tenant=session.tenant)
        with self.clock.on_cpu(session.core):
            sandbox.kill(f"tenant {session.tenant} exceeded EMC allowance "
                         f"({request_emc} per request)")
            # dead slot: replaced by a fork; the kill path scrubbed it
            record = self.pool.release(session.slot)
        self._seal_evidence(session, record)
        self._drain_queue()

    def _finish(self, session: ClientSession, outcome: str) -> None:
        self._finalize(session, outcome)
        self.clock.tracer.event("fleet:session_end", "fleet",
                                session=session.name, outcome=outcome)
        # the scrub + verify on release is the departing session's cost:
        # it runs on the core that served it
        with self.clock.on_cpu(session.core):
            record = self.pool.release(
                session.slot,
                patterns=[session.secret, *session.payloads,
                          *session.responses])
        self._seal_evidence(session, record)
        self._drain_queue()

    def _seal_evidence(self, session: ClientSession, record: dict) -> None:
        """Hold the closing session's certificate evidence.

        Taken right after the slot released: the scrub's own audit event
        has committed, so the window ``[audit_seq_start, audit_seq)``
        covers the full admit → … → scrub (or kill) arc and is closed.
        Its events are the newest ``audit_seq - audit_seq_start`` in the
        ring, read off the tail in O(window); a window the ring already
        evicted part of is held short, and issuance refuses it.
        """
        session.scrub_record = record
        count = self.monitor.audit_seq - session.audit_seq_start
        session.audit_window = list(
            islice(reversed(self.monitor.audit_log), count))[::-1]

    def _drain_queue(self) -> None:
        """FIFO re-admission after slots free up: one single-pass sweep.

        Each waiting session is popped once, re-decided, and either
        started or parked on the survivors list (order preserved). The
        sweep visits every session at most once per drain — O(queue) —
        instead of rescanning the whole list after every admission.

        Drains run inside the *finishing* session's trace binding
        (``_finish``/``_evict`` call here), so the sweep first clears the
        context — a dequeued session's bring-up must never inherit the
        departing request's trace ID — then rebinds per session.
        """
        with self.clock.tracer.bind(None):
            if self.queue and self.pool.free_slots():
                survivors: deque[ClientSession] = deque()
                while self.queue:
                    session = self.queue.popleft()
                    if not self.pool.free_slots():
                        survivors.append(session)
                        continue
                    decision = self.controller.decide(
                        session.tenant,
                        requested_bytes=self.pool.template.confined_bytes,
                        active=self._active_by_tenant(),
                        queued=0,             # already queued: re-admission
                        free_slots=len(self.pool.free_slots()),
                        trace_id=session.trace_id)
                    if decision.action == "admit":
                        with self.clock.tracer.bind(session.trace_id
                                                    or None):
                            self.clock.tracer.event("fleet:dequeue", "fleet",
                                                    session=session.name)
                        self._start(session)
                    else:
                        survivors.append(session)
                self.queue = survivors
            self.clock.metrics.set_gauge("erebor_fleet_queue_depth",
                                         len(self.queue))

    # ------------------------------------------------------------------ #
    # top-level drive
    # ------------------------------------------------------------------ #

    def _core_gauges(self) -> None:
        for core in range(self.n_cpus):
            self.clock.metrics.set_gauge("erebor_fleet_core_busy_cycles",
                                         self.clock.cpu_busy(core),
                                         core=str(core))

    def run(self, sessions: list[ClientSession]) -> list[ClientSession]:
        """Submit everything, then run rounds until the fleet drains."""
        for session in sessions:
            self.submit(session)
        while self.active:
            self.step()
        # anything still queued can never be unblocked (no session left
        # to release a slot): reject deterministically rather than hang
        while self.queue:
            self._reject(self.queue.popleft(), "starved")
        self.clock.metrics.set_gauge("erebor_fleet_queue_depth", 0)
        self._core_gauges()
        return self.finished

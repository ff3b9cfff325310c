"""The benchmark's three workloads, composed from the simulator's public API.

Each workload is a closed loop driven from one process. One *round* builds
a fresh CVM, sets it up, serves a fixed number of requests, and checks
every output after the timed windows close. ``run.py`` repeats rounds with
the same seed a fixed number of times and keeps each timed step's fastest
repetition (:func:`fastest`), so every round of one run must do the same
simulated work and end in the same state (the round fingerprint).

* ``llama-fleet`` — the headline §9.2 fleet: 8 clients x 2 llama requests,
  8 CoW-forked pool slots, 8 tenants, 4 simulated cores, tracer off. Host
  time goes to demand faults, ``Mmu.check``, ``touch_pages`` and EMC
  charging; it retires no ISA instructions and does few handshakes.
* ``certified-churn`` — 96 single-request helloworld sessions from 8
  tenants over a 4-slot warm pool on 2 cores with the flight recorder
  armed; after the drain one certificate per session is issued and
  verified offline. Session bring-up dominates, and the pool recycles
  slots by warm reset + scrub-verify instead of forking.
* ``sandboxed-isa`` — 4 LibOS sandboxes, each with its own loaded SELF
  program (a checksum-and-transform loop over the request bytes) run by
  ``run_program`` on every sealed request, round-robin; the only path
  dominated by the ISA interpreter, superblock cache and TLB.

The two fleet workloads compose exactly the pieces ``run_fleet`` composes,
in the same order, so set-up and serving can be timed apart;
:meth:`FleetWorkload.parity` checks that a composed round ends in the same
audit head and cycle count as a ``run_fleet`` call with the same spec.
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

import repro.apps  # noqa: F401  (populates the workload registry)
from repro.apps.base import workload as make_workload
from repro.certs import CertificateVerifier, serialize_certificate
from repro.certs.issue import CertificateIssuer, published_refs
from repro.client import RemoteClient
from repro.core.boot import erebor_boot, published_measurement
from repro.core.channel import SecureChannel, UntrustedProxy
from repro.fleet import (
    AdmissionConfig,
    AdmissionController,
    FleetScheduler,
    LoadGenerator,
    PoolConfig,
    SandboxTemplate,
    WarmPool,
    run_fleet,
)
from repro.hw.isa import INSTR_SIZE, I
from repro.libos import LibOs, Manifest, build_user_program, load_program
from repro.libos import loader
from repro.libos.loader import PROG_CODE_VA, PROG_DATA_VA
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import capture_ledger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import gc_batched_recording
from repro.vm import MIB, CvmMachine, MachineConfig

U64 = (1 << 64) - 1

#: ledger planes reported per request (``obs`` is always 0 and
#: ``mitigation`` / ``other`` / ``untagged`` stay empty on these workloads)
PLANES = ("exec.interpret", "exec.superblock", "mmu", "fault", "emc",
          "privop", "transition", "sandbox", "sched", "scrub", "verify",
          "io")

#: clock events reported per request
EVENTS = ("page_fault", "cow_break", "emc", "sandbox_exit")


class Probe:
    """Hooks around the serve window; the traced run snapshots there."""

    def begin_serve(self) -> None:
        """Called right before the first request is submitted."""

    def end_serve(self) -> None:
        """Called right after the last response arrived."""


@dataclass
class Round:
    """What one round measured and checked (plain data, no live objects)."""

    setup_s: float
    #: host seconds of each timed step, by phase: ``serve`` (admission of
    #: every session, then one entry per scheduling round or request) and,
    #: on certified-churn, ``issue`` and ``verify`` (one entry per
    #: certificate), since a session is served once its certificate
    #: verifies. Every round repeats the same steps.
    steps: dict
    requests: int
    attempted: int
    failed: int
    #: (audit head, serial cycles) at the end of serving
    fingerprint: tuple
    wall_cycles: int
    planes: dict
    events: dict
    tlb: tuple                       # serve-phase (hits, misses)
    conserved: bool                  # ledger conservation held
    extra: dict = field(default_factory=dict)


def fastest(rounds: list[Round], phase: str) -> float:
    """Sum over a phase's steps of each step's fastest repetition.

    Every round repeats the same simulated work step for step, and other
    processes on the host can only add time to a step, so the fastest
    repetition is the least disturbed measurement of it. On a shared host
    whose speed swings by half within a second, this is far steadier than
    a median over whole rounds.
    """
    columns = zip(*(r.steps.get(phase, ()) for r in rounds))
    return sum(min(column) for column in columns)


def host_ms_per_req(rounds: list[Round]) -> float:
    """Host milliseconds per request over every timed phase."""
    total = sum(fastest(rounds, phase) for phase in rounds[0].steps)
    return 1000 * total / rounds[0].requests


def _snapshot(machine) -> tuple:
    mmu = machine.cpu.mmu
    return (capture_ledger(machine.clock, machine),
            dict(machine.clock.events), (mmu.tlb_hits, mmu.tlb_misses))


def _serve_delta(machine, before: tuple) -> tuple:
    """Serve-phase planes, events and TLB counts (read-only on the clock)."""
    ledger0, events0, tlb0 = before
    ledger, events, tlb = _snapshot(machine)
    planes = {p: ledger["planes"].get(p, 0) - ledger0["planes"].get(p, 0)
              for p in PLANES}
    counts = {e: events.get(e, 0) - events0.get(e, 0) for e in EVENTS}
    return (planes, counts, (tlb[0] - tlb0[0], tlb[1] - tlb0[1]),
            ledger["conservation"]["ok"])


class _NullRuntime:
    """App runtime that only computes: yields the model's reference output."""

    def malloc(self, size):
        return 0

    def touch_range(self, *args, **kwargs):
        return 0

    def touch_common(self, *args, **kwargs):
        return 0

    def compute(self, cycles):
        pass

    def parallel_for(self, *args, **kwargs):
        pass

    def send_output(self, data):
        pass


# --------------------------------------------------------------------------- #
# fleet workloads
# --------------------------------------------------------------------------- #

class FleetWorkload:
    """A seeded multi-tenant fleet, composed the way ``run_fleet`` does."""

    def __init__(self, *, app: str, clients: int, requests: int,
                 pool_size: int, tenants: int, n_cpus: int, scale: float,
                 memory_bytes: int, cma_bytes: int, flight: bool,
                 certificates: bool):
        self.app = app
        self.clients = clients
        self.requests = requests
        self.pool_size = pool_size
        self.tenants = tenants
        self.n_cpus = n_cpus
        self.scale = scale
        self.memory_bytes = memory_bytes
        self.cma_bytes = cma_bytes
        self.flight = flight
        self.certificates = certificates
        self.seed = 0
        self.expected: dict[str, list[bytes]] = {}
        self.verifier: CertificateVerifier | None = None

    def _sessions(self):
        return LoadGenerator(clients=self.clients, requests=self.requests,
                             seed=self.seed, tenants=self.tenants).sessions()

    def prepare(self, seed: int) -> None:
        """Derive the inputs and their reference outputs from the seed."""
        self.seed = seed
        model = make_workload(self.app, seed=seed, scale=self.scale)
        rt = _NullRuntime()
        self.expected = {s.name: [model.serve(rt, p) for p in s.payloads]
                         for s in self._sessions()}
        if self.certificates:
            # the client's golden values, derived offline once
            self.verifier = CertificateVerifier(refs=published_refs())

    def parity(self) -> tuple:
        """``(audit head, cycles)`` of ``run_fleet`` with the same spec."""
        report, _ = run_fleet(
            workload=self.app, clients=self.clients, requests=self.requests,
            pool_size=self.pool_size, tenants=self.tenants, seed=self.seed,
            scale=self.scale, n_cpus=self.n_cpus,
            memory_bytes=self.memory_bytes, cma_bytes=self.cma_bytes,
            flight=self.flight, certificates=self.certificates)
        return report.audit_head, report.total_cycles

    def round(self, probe: Probe) -> Round:
        sessions = self._sessions()
        gc.collect()
        t_setup = perf_counter()
        machine = CvmMachine(MachineConfig(memory_bytes=self.memory_bytes,
                                           seed=self.seed))
        machine.clock.metrics = MetricsRegistry()
        if self.flight:
            machine.clock.tracer = FlightRecorder(machine.clock)
        system = erebor_boot(machine, cma_bytes=self.cma_bytes)
        clock = machine.clock
        with gc_batched_recording(clock.tracer.enabled):
            work = make_workload(self.app, seed=self.seed, scale=self.scale)
            template = SandboxTemplate.capture(system, work)
            pool = WarmPool(system, template,
                            PoolConfig(size=self.pool_size, low_watermark=1))
            scheduler = FleetScheduler(
                system, pool, work,
                AdmissionController(AdmissionConfig(queue_depth=self.clients)),
                n_cpus=self.n_cpus)
            setup_s = perf_counter() - t_setup
            gc.collect()
            before = _snapshot(machine)
            wall0 = clock.wall_cycles
            # scheduler.run(sessions) split into timed steps: submit every
            # session, then one scheduling round per step; the final
            # run([]) only closes the drain, as run(sessions) would
            probe.begin_serve()
            t0 = perf_counter()
            for session in sessions:
                scheduler.submit(session)
            serve = [perf_counter() - t0]
            while scheduler.active:
                t0 = perf_counter()
                scheduler.step()
                serve.append(perf_counter() - t0)
            finished = scheduler.run([])
            probe.end_serve()
            wall_cycles = clock.wall_cycles - wall0
        fingerprint = (system.monitor.audit_head, clock.cycles)
        planes, events, tlb, conserved = _serve_delta(machine, before)

        attempted = self.clients * self.requests
        failed = 0
        for s in finished:
            want = self.expected[s.name]
            if s.outcome != "completed" or len(s.responses) != len(want):
                failed += len(want)
                continue
            failed += sum(got != exp for got, exp in zip(s.responses, want))
        warm = sum(s.start_kind == "warm" for s in finished)
        extra = {"warm_reuse_ratio": warm / max(len(finished), 1)}
        steps = {"serve": serve}

        if self.certificates:
            traces = {s.name: s.trace_id for s in finished if s.trace_id}
            issuer = CertificateIssuer(system, workload=self.app,
                                       fleet_seed=self.seed)
            gc.collect()
            t0 = perf_counter()
            certs = issuer.issue_all(finished, traces=traces)
            steps["issue"] = [perf_counter() - t0]
            # the client receives the serialized file, never live objects
            files = [serialize_certificate(certs[n]) for n in sorted(certs)]
            docs = [json.loads(text) for text in files]
            gc.collect()
            steps["verify"], results = [], []
            for doc in docs:
                t0 = perf_counter()
                results.append(self.verifier.verify(doc))
                steps["verify"].append(perf_counter() - t0)
            attempted += len(finished)
            failed += len(finished) - sum(r.ok for r in results)
            n = max(len(certs), 1)
            extra.update(
                certs=len(certs),
                cert_kib=sum(len(text) for text in files) / 1024 / n,
                audit_events_per_cert=sum(
                    d["body"]["audit"]["events"] for d in docs) / n)
        return Round(setup_s=setup_s, steps=steps,
                     requests=self.clients * self.requests,
                     attempted=attempted, failed=failed,
                     fingerprint=fingerprint, wall_cycles=wall_cycles,
                     planes=planes, events=events, tlb=tlb,
                     conserved=conserved, extra=extra)


# --------------------------------------------------------------------------- #
# sandboxed ISA workload
# --------------------------------------------------------------------------- #

#: the program's hash multiplier and shift (passed in registers)
MULT = 0x9E3779B97F4A7C15
SHIFT = 29


def checksum_transform_program(passes: int):
    """A SELF program: ``passes`` checksum-and-transform sweeps over words.

    Arguments in registers: r9 = input VA, r10 = output VA, r11 = word
    count, r12 = key, r13 = multiplier, r15 = shift. Each sweep updates
    the running hash ``h = h * mult + w`` and writes ``w ^ (h >> shift) ^
    key`` per word; the final hash lands at the start of the data section.
    """
    outer = PROG_CODE_VA + 2 * INSTR_SIZE
    inner = outer + 3 * INSTR_SIZE
    body = [
        I("movi", "r14", imm=0),
        I("movi", "r8", imm=passes),
        I("mov", "rsi", "r9"),            # outer:
        I("mov", "rdi", "r10"),
        I("mov", "rcx", "r11"),
        I("load", "rax", "rsi", imm=0),   # inner:
        I("mul", "r14", "r13"),
        I("add", "r14", "rax"),
        I("mov", "rbx", "r14"),
        I("shr", "rbx", "r15"),
        I("xor", "rbx", "r12"),
        I("xor", "rax", "rbx"),
        I("store", "rdi", "rax", imm=0),
        I("addi", "rsi", imm=8),
        I("addi", "rdi", imm=8),
        I("addi", "rcx", imm=U64),        # rcx -= 1
        I("jnz", imm=inner),
        I("addi", "r8", imm=U64),         # r8 -= 1
        I("jnz", imm=outer),
        I("movi", "rdx", imm=PROG_DATA_VA),
        I("store", "rdx", "r14", imm=0),
        I("hlt"),
    ]
    return build_user_program(body, name="checksum-transform",
                              data=b"\x00" * 4096)


def checksum_transform_reference(payload: bytes, key: int,
                                 passes: int) -> bytes:
    """Pure-Python twin of :func:`checksum_transform_program`'s output."""
    words = [int.from_bytes(payload[i:i + 8], "little")
             for i in range(0, len(payload), 8)]
    h = 0
    out: list[int] = []
    for _ in range(passes):
        out = []
        for w in words:
            h = (h * MULT + w) & U64
            out.append(w ^ (h >> SHIFT) ^ key)
    return b"".join(x.to_bytes(8, "little") for x in [h, *out])


@dataclass
class _Lane:
    """One sandbox with its program and its client's sealed channel."""

    libos: LibOs
    program: object
    channel: SecureChannel
    client: RemoteClient
    data_pa: int
    key: int


class SandboxedIsa:
    """Sealed requests processed by real ISA code in several sandboxes."""

    sandboxes = 4
    requests = 64
    payload_bytes = 1000               # 125 words: the result fits 1 KiB
    passes = 8
    memory_bytes = 512 * MIB
    cma_bytes = 64 * MIB

    def __init__(self):
        self.seed = 0
        self.image = checksum_transform_program(self.passes)
        self.max_steps = (self.passes * (self.payload_bytes // 8 * 12 + 5)
                          + 16)
        self.inputs: list[bytes] = []
        self.keys: list[int] = []
        self.expected: list[bytes] = []

    def prepare(self, seed: int) -> None:
        """Derive the payloads, per-sandbox keys and reference results."""
        self.seed = seed
        rng = random.Random(seed)
        self.keys = [rng.getrandbits(64) for _ in range(self.sandboxes)]
        self.inputs = [rng.randbytes(self.payload_bytes)
                       for _ in range(self.requests)]
        self.expected = [
            checksum_transform_reference(
                p, self.keys[i % self.sandboxes], self.passes)
            for i, p in enumerate(self.inputs)]

    def parity(self) -> None:
        """No ``run_fleet`` equivalent: rounds only check each other."""
        return None

    def round(self, probe: Probe) -> Round:
        gc.collect()
        t_setup = perf_counter()
        machine = CvmMachine(MachineConfig(memory_bytes=self.memory_bytes,
                                           seed=self.seed))
        system = erebor_boot(machine, cma_bytes=self.cma_bytes)
        proxy = UntrustedProxy(system.monitor)
        lanes = []
        for k in range(self.sandboxes):
            libos = LibOs.boot_sandboxed(
                system, Manifest(name=f"isa-{k}", heap_bytes=1 * MIB),
                confined_budget=8 * MIB)
            program = load_program(libos, self.image)
            data_fn = libos.sandbox.task.aspace.mapped_frame(PROG_DATA_VA)
            channel = SecureChannel(system.monitor, libos.sandbox)
            client = RemoteClient(machine.authority, published_measurement(),
                                  seed=self.seed + k)
            client.connect(proxy, channel)
            lanes.append(_Lane(libos, program, channel, client,
                               data_fn << 12, self.keys[k]))
        setup_s = perf_counter() - t_setup
        gc.collect()
        before = _snapshot(machine)
        wall0 = machine.clock.wall_cycles
        out_len = self.payload_bytes + 8
        words = self.payload_bytes // 8
        results, serve = [], []
        probe.begin_serve()
        for i, payload in enumerate(self.inputs):
            t0 = perf_counter()
            lane = lanes[i % self.sandboxes]
            lane.client.request(proxy, lane.channel, payload)
            lane.libos.recv_input()
            loader.run_program(
                lane.libos, lane.program, max_steps=self.max_steps,
                args={"r9": lane.libos.sandbox.io_vma.start,
                      "r10": PROG_DATA_VA + 8, "r11": words,
                      "r12": lane.key, "r13": MULT, "r15": SHIFT})
            lane.libos.send_output(machine.phys.read(lane.data_pa, out_len))
            results.append(lane.client.fetch_result(proxy, lane.channel))
            serve.append(perf_counter() - t0)
        probe.end_serve()
        wall_cycles = machine.clock.wall_cycles - wall0
        fingerprint = (system.monitor.audit_head, machine.clock.cycles)
        planes, events, tlb, conserved = _serve_delta(machine, before)
        failed = sum(got != exp for got, exp in zip(results, self.expected))
        return Round(setup_s=setup_s, steps={"serve": serve},
                     requests=self.requests, attempted=self.requests,
                     failed=failed, fingerprint=fingerprint,
                     wall_cycles=wall_cycles, planes=planes, events=events,
                     tlb=tlb, conserved=conserved)


#: benchmark workload name -> factory of a fresh workload object
WORKLOADS = {
    "llama-fleet": lambda: FleetWorkload(
        app="llama.cpp", clients=8, requests=2, pool_size=8, tenants=8,
        n_cpus=4, scale=0.1, memory_bytes=1024 * MIB, cma_bytes=512 * MIB,
        flight=False, certificates=False),
    "certified-churn": lambda: FleetWorkload(
        app="helloworld", clients=96, requests=1, pool_size=4, tenants=8,
        n_cpus=2, scale=0.1, memory_bytes=768 * MIB, cma_bytes=256 * MIB,
        flight=True, certificates=True),
    "sandboxed-isa": SandboxedIsa,
}

"""Per-layer attribution for the traced run.

:data:`TABLE` is the wrapper table handed to
:class:`repro.obs.hostprof.HostProfiler`: each label ``<module>.<entry>``
names a public entry point of one simulator layer, and the profiler books
each call's *self* host time (own time minus wrapped children) to it. A
traced round is an ordinary workload round with the table attached, so the
per-layer figures describe the same work the untraced rounds time.

No entry in the table spans a whole request or session: the scheduler's
own loop (``FleetScheduler.submit`` / ``step``) and the benchmark's serve
loop stay unwrapped, so their self time is attributed to nothing and the
serve-window coverage (``trace.serve.coverage``) is the share of serve
host time that the named layers explain, not 100% by construction.

Which end-to-end metric each layer should move, and on which workload:

* ``hw.*`` (interpreter, superblock cache, MMU walks) — ``host_ms_per_req``
  on sandboxed-isa; ``hw.mmu_check`` also on llama-fleet.
* ``kernel.*`` (demand faults, ``touch_pages``, syscalls) and ``core.emc``
  — ``host_ms_per_req`` on llama-fleet.
* ``core.channel``, ``core.proxy``, ``client.connect`` / ``request``,
  ``crypto.aead``, ``tdx.quote``, ``fleet.admit`` / ``acquire`` /
  ``release``, ``obs.emit``, ``core.audit`` and ``runtime.gc`` —
  ``host_ms_per_req`` on certified-churn (``crypto.aead``,
  ``client.request`` and ``libos.io`` also on sandboxed-isa).
* ``certs.*`` — ``host_ms_per_req`` on certified-churn, where a session
  is served once its certificate verifies.
* ``core.verify_kernel``, ``analysis.*`` and ``fleet.capture`` —
  ``setup_s`` everywhere (capture and fork on the fleets).
* ``libos.runtime`` (the app runtime's allocation, shared-region and
  compute calls) — ``host_ms_per_req`` on llama-fleet.
* ``apps.serve`` is the numpy model, its runtime calls wrapped apart:
  simulator changes should not move it.
* ``sim.*`` (serve-phase ledger planes and clock events per request) —
  ``sim_kcycles_per_req``.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

from repro.obs.hostprof import HostProfiler

from workloads import EVENTS, PLANES, Probe, Round, fastest, host_ms_per_req

#: label -> (module, qualified attribute) of every wrapped entry point
TABLE: tuple[tuple[str, str, str], ...] = (
    ("hw.cpu_run", "repro.hw.cpu", "Cpu.run"),
    ("hw.tcache_acquire", "repro.hw.translate", "TranslationCache.acquire"),
    ("hw.mmu_check", "repro.hw.mmu", "Mmu.check"),
    ("kernel.page_fault", "repro.kernel.kernel",
     "GuestKernel.handle_page_fault"),
    ("kernel.touch_pages", "repro.kernel.kernel", "GuestKernel.touch_pages"),
    ("kernel.syscall", "repro.kernel.kernel", "GuestKernel.syscall"),
    ("core.emc", "repro.core.monitor", "EreborMonitor.charge_emc"),
    ("core.emc", "repro.core.monitor", "EreborMonitor.charge_emc_batch"),
    ("core.audit", "repro.core.monitor", "EreborMonitor.audit"),
    ("core.verify_kernel", "repro.core.monitor",
     "EreborMonitor.verify_and_load_kernel"),
    ("core.channel", "repro.core.channel", "SecureChannel.handshake"),
    ("core.channel", "repro.core.channel", "SecureChannel.deliver_request"),
    ("core.channel", "repro.core.channel", "SecureChannel.fetch_response"),
    ("core.proxy", "repro.core.channel", "UntrustedProxy.relay_handshake"),
    ("core.proxy", "repro.core.channel", "UntrustedProxy.relay_request"),
    ("core.proxy", "repro.core.channel", "UntrustedProxy.relay_response"),
    ("client.connect", "repro.client.client", "RemoteClient.connect"),
    ("crypto.aead", "repro.crypto.aead", "SealedSession.seal"),
    ("crypto.aead", "repro.crypto.aead", "SealedSession.open"),
    ("tdx.quote", "repro.tdx.attestation", "AttestationAuthority.sign"),
    ("tdx.quote", "repro.tdx.attestation", "AttestationAuthority.verify"),
    ("client.request", "repro.client.client", "RemoteClient.request"),
    ("client.request", "repro.client.client", "RemoteClient.fetch_result"),
    ("libos.run_program", "repro.libos.loader", "run_program"),
    ("libos.io", "repro.libos.libos", "LibOs.recv_input"),
    ("libos.io", "repro.libos.libos", "LibOs.send_output"),
    ("libos.runtime", "repro.apps.runtime", "LibOsRuntime.malloc"),
    ("libos.runtime", "repro.apps.runtime", "LibOsRuntime.touch_common"),
    ("libos.runtime", "repro.apps.runtime", "LibOsRuntime.compute"),
    ("libos.runtime", "repro.apps.runtime", "LibOsRuntime.parallel_for"),
    ("apps.serve", "repro.apps.llama", "LlamaWorkload.serve"),
    ("apps.serve", "repro.apps.helloworld", "HelloworldWorkload.serve"),
    ("fleet.capture", "repro.fleet.template", "SandboxTemplate.capture"),
    ("fleet.fork", "repro.fleet.template", "SandboxTemplate.fork"),
    ("fleet.acquire", "repro.fleet.pool", "WarmPool.acquire"),
    ("fleet.release", "repro.fleet.pool", "WarmPool.release"),
    ("fleet.admit", "repro.fleet.admission", "AdmissionController.decide"),
    ("obs.emit", "repro.obs.trace", "_Span.__exit__"),
    ("obs.emit", "repro.obs.trace", "Tracer.event"),
    ("obs.emit", "repro.obs.trace", "Tracer.audit"),
    ("certs.issue", "repro.certs.issue", "CertificateIssuer.issue"),
    ("certs.trace_index", "repro.obs.reqtrace",
     "RequestTraceIndex.from_tracer"),
    ("certs.verify", "repro.certs.verify", "CertificateVerifier.verify"),
    ("analysis.cfg_verify", "repro.analysis.verifier",
     "StaticVerifier.verify_image"),
    ("analysis.dataflow", "repro.analysis.absint",
     "DataflowVerifier.verify_image"),
)

LABELS = tuple(dict.fromkeys(label for label, _, _ in TABLE))

#: every per-layer metric name with its unit, in report order
METRICS: dict[str, str] = {}
for _label in LABELS:
    METRICS[f"{_label}.calls_per_req"] = "count"
    METRICS[f"{_label}.self_ms_per_req"] = "ms"
METRICS.update({
    "hw.mmu.tlb_hit_ratio": "ratio",
    "hw.tcache.superblock_coverage": "ratio",
    "fleet.pool.warm_reuse_ratio": "ratio",
    "certs.audit.events_per_cert": "count",
    "certs.issue.ms_per_cert": "ms",
    "certs.verify.ms_per_cert": "ms",
    "certs.size.kib_per_cert": "KiB",
    "runtime.gc.ms_per_req": "ms",
    "trace.serve.coverage": "ratio",
    "trace.probe.overhead_ms_per_req": "ms",
    "trace.tracing.overhead_ms_per_req": "ms",
})
for _plane in PLANES:
    METRICS[f"sim.{_plane.replace('.', '_')}.kcycles_per_req"] = "kcycles"
for _event in EVENTS:
    METRICS[f"sim.{_event}.per_req"] = "count"


class TracedProbe(Probe):
    """Measures serve-window coverage and collector pauses."""

    def __init__(self, profiler: HostProfiler):
        self.profiler = profiler
        self.coverage = 0.0
        self.gc_s = 0.0
        self._gc_t0: float | None = None
        self._t0 = 0.0
        self._attributed0 = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += perf_counter() - self._gc_t0
            self._gc_t0 = None

    def begin_serve(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._attributed0 = self.profiler.attributed_s()
        self._t0 = perf_counter()

    def end_serve(self) -> None:
        window = perf_counter() - self._t0
        gc.callbacks.remove(self._on_gc)
        attributed = self.profiler.attributed_s() - self._attributed0
        self.coverage = attributed / window if window > 0 else 0.0


def traced_round(workload) -> tuple[Round, dict]:
    """One round under the wrapper table; returns it with its layer figures."""
    profiler = HostProfiler(subsystems=TABLE)
    probe = TracedProbe(profiler)
    profiler.attach()
    try:
        profiler.start()
        rnd = workload.round(probe)
        profiler.stop()
    finally:
        profiler.detach()
    profiler.calibrate()
    return rnd, layer_metrics(rnd, profiler, probe)


def layer_metrics(rnd: Round, profiler: HostProfiler,
                  probe: TracedProbe) -> dict:
    n = rnd.requests
    out: dict[str, float] = {}
    for label in LABELS:
        out[f"{label}.calls_per_req"] = profiler.calls.get(label, 0) / n
        out[f"{label}.self_ms_per_req"] = \
            1000 * profiler.totals.get(label, 0.0) / n
    hits, misses = rnd.tlb
    out["hw.mmu.tlb_hit_ratio"] = hits / (hits + misses) if hits else 0.0
    executed = rnd.planes["exec.interpret"] + rnd.planes["exec.superblock"]
    out["hw.tcache.superblock_coverage"] = \
        rnd.planes["exec.superblock"] / executed if executed else 0.0
    out["fleet.pool.warm_reuse_ratio"] = rnd.extra.get("warm_reuse_ratio", 0.0)
    out["certs.audit.events_per_cert"] = \
        rnd.extra.get("audit_events_per_cert", 0.0)
    out["runtime.gc.ms_per_req"] = 1000 * probe.gc_s / n
    out["trace.serve.coverage"] = probe.coverage
    out["trace.probe.overhead_ms_per_req"] = \
        1000 * profiler.report()["probe_overhead_s"] / n
    for plane in PLANES:
        out[f"sim.{plane.replace('.', '_')}.kcycles_per_req"] = \
            rnd.planes[plane] / 1000 / n
    for event in EVENTS:
        out[f"sim.{event}.per_req"] = rnd.events[event] / n
    return out


def summarize(untraced: list[Round], traced: list[tuple[Round, dict]]
              ) -> dict:
    """Median of every per-layer metric over the run's rounds."""
    out = {name: statistics.median(m[name] for _, m in traced)
           for name in METRICS if name in traced[0][1]}
    # certificate costs come from the untraced rounds' own timers
    certs = untraced[0].extra.get("certs", 0)
    for phase in ("issue", "verify"):
        out[f"certs.{phase}.ms_per_cert"] = \
            1000 * fastest(untraced, phase) / certs if certs else 0.0
    out["certs.size.kib_per_cert"] = untraced[0].extra.get("cert_kib", 0.0)
    out["trace.tracing.overhead_ms_per_req"] = \
        host_ms_per_req([r for r, _ in traced]) - host_ms_per_req(untraced)
    return {name: out[name] for name in METRICS}

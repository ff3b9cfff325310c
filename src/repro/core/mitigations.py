"""Optional digital side/covert-channel mitigations (paper §12).

The paper leaves micro-architectural channels out of scope but names the
software heuristics Erebor can adopt; this module implements them as
monitor features with measurable costs:

* **cache/TLB eviction-enforced exiting** — flush shared micro-
  architectural state on every sandbox exit (Varys-style), charging a
  fixed eviction cost;
* **sandbox exit rate limiting** — throttle a sandbox whose exit
  frequency exceeds a budget (exit-frequency covert channels);
* **quantized communication intervals** — release channel output only on
  fixed time boundaries (Ryoan-style leakage-free intervals), hiding
  data-dependent processing time;
* **noise injection** — pad channel operations with deterministic dummy
  work (Obfuscuro-style obfuscation, modelled at the cost level).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hw.cycles import CPU_FREQ_HZ, CycleClock

if TYPE_CHECKING:
    from .sandbox import Sandbox

#: modelled cost of evicting caches+TLB on one exit (Varys-style)
CACHE_FLUSH_CYCLES = 30_000
#: throttle penalty applied when the exit budget is exhausted
THROTTLE_STALL_CYCLES = 200_000
#: seed of each engine's noise-injection RNG (deterministic padding)
NOISE_SEED = 0x51DE


@dataclass
class MitigationConfig:
    """Which §12 mitigations are armed."""

    flush_on_exit: bool = False
    exit_rate_limit_per_sec: int | None = None
    quantize_output_cycles: int | None = None
    noise_injection_max_cycles: int = 0


class SideChannelMitigations:
    """Monitor-attached mitigation engine."""

    def __init__(self, clock: CycleClock, config: MitigationConfig):
        self.clock = clock
        self.config = config
        self._rng = random.Random(NOISE_SEED)
        self._window_start = clock.cycles
        self._window_exits = 0
        self.stats = {"flushes": 0, "throttles": 0, "quantized_waits": 0,
                      "noise_ops": 0}

    # ------------------------------------------------------------------ #
    # exit-side hooks (called from MonitorExitPath)
    # ------------------------------------------------------------------ #

    def on_sandbox_exit(self, sandbox: "Sandbox") -> None:
        if self.config.flush_on_exit:
            self.clock.charge(CACHE_FLUSH_CYCLES, "mitigation_flush")
            self.stats["flushes"] += 1
            self.clock.count("mitigation_flush")
        limit = self.config.exit_rate_limit_per_sec
        if limit is not None:
            if self.clock.cycles - self._window_start >= CPU_FREQ_HZ:
                self._window_start = self.clock.cycles
                self._window_exits = 0
            self._window_exits += 1
            if self._window_exits > limit:
                self.clock.charge(THROTTLE_STALL_CYCLES, "mitigation_throttle")
                self.stats["throttles"] += 1
                self.clock.count("mitigation_throttle")

    # ------------------------------------------------------------------ #
    # channel-side hooks (called from SecureChannel)
    # ------------------------------------------------------------------ #

    def on_output_release(self, sandbox: "Sandbox" | None = None) -> int:
        """Gate an output release; returns the release cycle timestamp.

        With quantization on, the release is delayed to the next interval
        boundary, so the observable completion time carries log2(1) bits
        of the data-dependent processing time. ``sandbox`` is accepted
        (and ignored) so callers can pass it uniformly whether the armed
        engine is fleet-wide or a per-tenant router.
        """
        interval = self.config.quantize_output_cycles
        if self.config.noise_injection_max_cycles:
            noise = self._rng.randrange(self.config.noise_injection_max_cycles)
            self.clock.charge(noise, "mitigation_noise")
            self.stats["noise_ops"] += 1
        if interval:
            remainder = self.clock.cycles % interval
            if remainder:
                self.clock.charge(interval - remainder, "mitigation_quantize")
                self.stats["quantized_waits"] += 1
                self.clock.count("mitigation_quantize")
        return self.clock.cycles


class TenantMitigationRouter:
    """Per-tenant §12 routing: noisy tenants pay their own mitigation cost.

    The ROADMAP's side-channel-budget item: instead of fleet-wide arming
    (every sandbox flushed/throttled because one tenant misbehaved), the
    router keeps one :class:`SideChannelMitigations` engine per tenant —
    typically armed by the fleet's anomaly detectors — plus an optional
    ``default`` engine applied to everyone else. Mitigation cycles are
    charged on whatever core is executing the offending tenant's exit,
    so other tenants' cycle accounting is untouched (test-enforced).
    """

    def __init__(self, clock: CycleClock,
                 default: "SideChannelMitigations | None" = None):
        self.clock = clock
        self.default = default
        self.engines: dict[str, SideChannelMitigations] = {}
        self.armed_at: dict[str, int] = {}   # tenant → arming cycle

    def arm(self, tenant: str, config: MitigationConfig) -> SideChannelMitigations:
        """Arm (or replace) one tenant's engine; returns it."""
        engine = SideChannelMitigations(self.clock, config)
        self.engines[tenant] = engine
        self.armed_at.setdefault(tenant, self.clock.cycles)
        return engine

    def engine_for(self, sandbox) -> "SideChannelMitigations | None":
        tenant = getattr(sandbox, "tenant", "") if sandbox is not None else ""
        return self.engines.get(tenant, self.default)

    # the monitor-facing surface mirrors SideChannelMitigations, so the
    # exit path and the secure channel call either interchangeably

    def on_sandbox_exit(self, sandbox) -> None:
        engine = self.engine_for(sandbox)
        if engine is not None:
            engine.on_sandbox_exit(sandbox)

    def on_output_release(self, sandbox=None) -> int:
        engine = self.engine_for(sandbox)
        if engine is not None:
            return engine.on_output_release(sandbox)
        return self.clock.cycles

    @property
    def stats(self) -> dict:
        """Aggregate engine stats (tenant-tagged under ``per_tenant``)."""
        total = {"flushes": 0, "throttles": 0, "quantized_waits": 0,
                 "noise_ops": 0}
        per_tenant = {}
        engines = dict(self.engines)
        if self.default is not None:
            engines["*default*"] = self.default
        for tenant, engine in engines.items():
            per_tenant[tenant] = dict(engine.stats)
            for k in total:
                total[k] += engine.stats.get(k, 0)
        total["per_tenant"] = per_tenant
        return total

"""``repro.fleet`` — multi-tenant sandbox orchestration (§9.2 at scale).

Erebor's per-session cost story only matters when one CVM serves many
clients; this package is that serving layer:

* :mod:`repro.fleet.template` — boot one sandbox cold, seal it as an
  immutable golden image, fork clients copy-on-write: confined pages are
  duplicated lazily on first write by the monitor's self-pager, common
  frames stay physically shared.
* :mod:`repro.fleet.pool` — a warm pool recycling forked sandboxes via
  ``reset_for_reuse``, with a scrub-verify pass that scans the frames a
  client could have dirtied for that client's plaintext (C8 per reuse).
* :mod:`repro.fleet.admission` / :mod:`repro.fleet.scheduler` — per-
  tenant quotas (sessions, confined bytes, EMC per request), a bounded
  wait queue, deterministic admit/queue/reject decisions and post-hoc
  EMC eviction, driving real attested secure-channel sessions.
* :mod:`repro.fleet.loadgen` — a seeded load generator,
  :func:`build_fleet` (one composed :class:`Fleet` to drive step by step)
  and :func:`run_fleet`, the one-call fleet benchmark behind
  ``benchmarks/bench_fleet.py``; ``python -m repro.fleet`` drives a
  :class:`Fleet`.

Everything is deterministic: same seed, byte-identical report.
"""

from __future__ import annotations

from .admission import (
    AdmissionConfig,
    AdmissionController,
    Decision,
    TenantQuota,
)
from .loadgen import (
    Fleet,
    FleetReport,
    LoadGenerator,
    build_fleet,
    run_fleet,
)
from .pool import PoolConfig, PoolSlot, ScrubVerificationError, WarmPool
from .scheduler import (
    AnomalyMonitor,
    ClientSession,
    FleetScheduler,
    SloConfig,
    SloMonitor,
)
from .template import FleetInstance, SandboxTemplate, TemplateVma

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AnomalyMonitor",
    "ClientSession",
    "Decision",
    "Fleet",
    "FleetInstance",
    "FleetReport",
    "FleetScheduler",
    "LoadGenerator",
    "PoolConfig",
    "PoolSlot",
    "SandboxTemplate",
    "ScrubVerificationError",
    "SloConfig",
    "SloMonitor",
    "TemplateVma",
    "TenantQuota",
    "WarmPool",
    "build_fleet",
    "run_fleet",
]

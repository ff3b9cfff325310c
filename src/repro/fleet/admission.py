"""Admission control: who gets a sandbox, who waits, who is turned away.

Every client session is routed through one deterministic decision before
it touches a pool slot:

* **admit** — a slot is free and the tenant is inside its quotas,
* **queue** — the tenant is over quota or the pool is exhausted, but the
  bounded wait queue has room,
* **reject** — the queue itself is full (``backpressure``) or the request
  can never be satisfied (asking for more confined memory than the
  tenant's ceiling).

Quotas are per tenant: concurrent sessions, total confined bytes, and an
EMC-cycle allowance per request (enforced post-hoc by the scheduler —
a session that burns past it is *evicted*, the fleet-scale analogue of
the single-sandbox kill-on-violation policy).

When the boot-time dataflow plane proved a :class:`StaticBudget` for the
loaded image (check V10, :mod:`repro.analysis.absint`), admission can be
*budget-informed*: :attr:`AdmissionConfig.static_budget` makes
:meth:`AdmissionController.quota_for` clamp each tenant's
``max_emc_per_request`` to the proven per-request bound, and images whose
budget is unbounded (a weighted cycle V10 would reject at boot) are
turned away outright — quotas derived from proofs, not reactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..analysis.absint import StaticBudget

MIB = 1024 * 1024


@dataclass(frozen=True)
class TenantQuota:
    max_active_sessions: int = 2
    max_confined_bytes: int = 64 * MIB
    #: EMC gate invocations one request may trigger before eviction
    max_emc_per_request: int = 10_000


#: the quota of every tenant without an entry in ``AdmissionConfig.quotas``
DEFAULT_QUOTA = TenantQuota()


@dataclass
class AdmissionConfig:
    queue_depth: int = 8
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: V10-proven per-image bounds (None = budget-blind admission)
    static_budget: "StaticBudget | None" = None
    #: how many kernel-image activations one request is modelled as when
    #: converting the per-activation proof into a per-request EMC ceiling
    activations_per_request: int = 1_000


@dataclass(frozen=True)
class Decision:
    action: str            # "admit" | "queue" | "reject"
    reason: str = ""
    #: the request trace ID this decision ruled on (reqtrace) — lets a
    #: rejected request be found in the trace index even though it never
    #: reached a slot; "" for callers that pass none
    trace_id: str = ""


class AdmissionController:
    """Pure, deterministic policy: same inputs, same decision, always.

    Besides the returned :class:`Decision`, every ruling is appended to
    :attr:`log` — a deterministic, trace-aware audit trail (tenant,
    action, reason, trace ID) that postmortems can join against the
    request trace index. The log is derived state: it never feeds the
    fleet report digest.
    """

    def __init__(self, config: AdmissionConfig | None = None):
        self.config = config or AdmissionConfig()
        self.log: list[tuple[str, str, str, str]] = []

    def quota_for(self, tenant: str) -> TenantQuota:
        quota = self.config.quotas.get(tenant, DEFAULT_QUOTA)
        budget = self.config.static_budget
        if budget is not None:
            ceiling = budget.max_emc_per_request(
                self.config.activations_per_request)
            if ceiling is not None and ceiling < quota.max_emc_per_request:
                quota = replace(quota, max_emc_per_request=ceiling)
        return quota

    def decide(self, tenant: str, *, requested_bytes: int,
               active: dict[str, tuple[int, int]], queued: int,
               free_slots: int, trace_id: str = "") -> Decision:
        """One admission decision.

        ``active`` maps tenant -> (live sessions, confined bytes in use);
        ``queued`` is the current wait-queue depth; ``free_slots`` the
        number of idle pool slots; ``trace_id`` (if the caller minted
        one) is stamped onto the decision and the log entry.
        """
        decision = self._rule(tenant, requested_bytes=requested_bytes,
                              active=active, queued=queued,
                              free_slots=free_slots, trace_id=trace_id)
        self.log.append((tenant, decision.action, decision.reason,
                         trace_id))
        return decision

    def _rule(self, tenant: str, *, requested_bytes: int,
              active: dict[str, tuple[int, int]], queued: int,
              free_slots: int, trace_id: str) -> Decision:
        budget = self.config.static_budget
        if budget is not None and not budget.bounded:
            # V10 would reject such an image at boot; an operator who
            # disarmed the plane still gets a deterministic refusal here
            return Decision("reject", "static-budget", trace_id)
        quota = self.quota_for(tenant)
        if requested_bytes > quota.max_confined_bytes:
            return Decision("reject", "memory-quota", trace_id)
        sessions, in_use = active.get(tenant, (0, 0))
        if sessions >= quota.max_active_sessions:
            return self._backpressure(queued, "tenant-quota", trace_id)
        if in_use + requested_bytes > quota.max_confined_bytes:
            return self._backpressure(queued, "memory-quota", trace_id)
        if free_slots <= 0:
            return self._backpressure(queued, "pool-exhausted", trace_id)
        return Decision("admit", trace_id=trace_id)

    def _backpressure(self, queued: int, why: str,
                      trace_id: str = "") -> Decision:
        if queued < self.config.queue_depth:
            return Decision("queue", why, trace_id)
        return Decision("reject", "backpressure", trace_id)

"""Budget-informed admission: V10's StaticBudget driving the fleet.

The boot-time dataflow plane proves a per-image worst-case EMC bound
(:class:`repro.analysis.absint.StaticBudget`); admission converts it to a
per-request ceiling, the scheduler meters against that ceiling, and the
proven rate bound dominates every observed runtime rate (soundness).
"""

import pytest

from repro.analysis.absint import StaticBudget
from repro.fleet import (
    AdmissionConfig,
    AdmissionController,
    TenantQuota,
    build_fleet,
    run_fleet,
)

MIB = 1024 * 1024


def _budget(emc=2, exits=0):
    return StaticBudget(image="test-kernel", emc_per_activation=emc,
                        exits_per_activation=exits, emc_per_kcycle=0.5,
                        exits_per_kcycle=0.0)


UNBOUNDED = StaticBudget(image="looped", emc_per_activation=None,
                         exits_per_activation=None, emc_per_kcycle=0.791139,
                         exits_per_kcycle=0.0)


# --------------------------------------------------------------------------- #
# controller unit behaviour
# --------------------------------------------------------------------------- #

def test_quota_clamped_to_proven_ceiling():
    ctl = AdmissionController(AdmissionConfig(
        static_budget=_budget(emc=2), activations_per_request=100))
    quota = ctl.quota_for("t0")
    # proven ceiling 2 * 100 = 200 < the 10_000 default
    assert quota.max_emc_per_request == 200
    # untouched dimensions pass through
    assert quota.max_active_sessions == TenantQuota().max_active_sessions


def test_generous_proof_leaves_quota_alone():
    ctl = AdmissionController(AdmissionConfig(
        static_budget=_budget(emc=1_000),
        activations_per_request=1_000_000))
    assert ctl.quota_for("t0").max_emc_per_request == \
        TenantQuota().max_emc_per_request


def test_clamp_composes_with_per_tenant_quotas():
    ctl = AdmissionController(AdmissionConfig(
        quotas={"vip": TenantQuota(max_emc_per_request=50)},
        static_budget=_budget(emc=2), activations_per_request=100))
    # the tighter of (tenant quota, proven ceiling) wins, per tenant
    assert ctl.quota_for("vip").max_emc_per_request == 50
    assert ctl.quota_for("other").max_emc_per_request == 200


def test_unbounded_budget_rejects_deterministically():
    ctl = AdmissionController(AdmissionConfig(static_budget=UNBOUNDED))
    for _ in range(3):
        d = ctl.decide("t0", requested_bytes=MIB, active={}, queued=0,
                       free_slots=4)
        assert (d.action, d.reason) == ("reject", "static-budget")
    assert all(entry[1] == "reject" for entry in ctl.log)


def test_budget_blind_admission_unchanged():
    ctl = AdmissionController(AdmissionConfig(static_budget=None))
    d = ctl.decide("t0", requested_bytes=MIB, active={}, queued=0,
                   free_slots=4)
    assert d.action == "admit"


# --------------------------------------------------------------------------- #
# end-to-end fleet behaviour
# --------------------------------------------------------------------------- #

def test_static_budget_admission_requires_dataflow_boot():
    from repro.core.monitor import EreborFeatures
    with pytest.raises(ValueError, match="dataflow-verified boot"):
        run_fleet(workload="helloworld", clients=1, requests=1,
                  features=EreborFeatures(dataflow_verifier=False),
                  static_budget_admission=True)


def test_fleet_wires_the_boot_proof_into_admission():
    report, system = run_fleet(workload="helloworld", clients=2,
                               requests=1, seed=11,
                               static_budget_admission=True)
    proof = system.monitor.kernel_dataflow_report.budget
    assert proof.bounded
    assert report.requests_served == 2


def test_static_budget_admission_leaves_the_callers_config_alone():
    # the proof goes into a copy: a later run with the same config must
    # not clamp quotas it was never asked to clamp
    admission = AdmissionConfig()
    fleet = build_fleet(workload="helloworld", clients=2, requests=1,
                        seed=11, admission=admission,
                        static_budget_admission=True)
    assert admission.static_budget is None
    used = fleet.scheduler.controller.config
    proof = fleet.system.monitor.kernel_dataflow_report.budget
    assert used.static_budget is proof


def test_tight_budget_evicts_deterministically():
    # one activation per request: the proven per-request ceiling drops
    # to emc_per_activation (a handful), far below what one llama.cpp
    # request actually burns — the scheduler must evict on the meter
    admission = AdmissionConfig(activations_per_request=1)
    kwargs = dict(workload="llama.cpp", clients=4, requests=2,
                  pool_size=2, tenants=2, seed=2025, scale=0.1,
                  admission=admission, static_budget_admission=True)
    report, system = run_fleet(**kwargs)
    assert report.counts["evict"] > 0
    assert all(s["outcome"] == "evicted" for s in report.sessions
               if s["reason"] == "emc-quota")
    # deterministic: same seed, same evictions, same digest
    again, _ = run_fleet(**kwargs)
    assert again.counts == report.counts
    assert again.digest() == report.digest()


def test_v10_rate_bound_dominates_observed_fleet_rate():
    """Soundness of the headline bound: the statically proven EMC
    density (events per kilocycle) is never exceeded by the measured
    rate of a real 16-request llama fleet."""
    report, system = run_fleet(workload="llama.cpp", clients=8,
                               requests=2, pool_size=4, tenants=2,
                               seed=2025, scale=0.1,
                               static_budget_admission=True)
    budget = system.monitor.kernel_dataflow_report.budget
    emc_events = sum(s["emc_used"] for s in report.sessions)
    assert emc_events > 0 and report.total_cycles > 0
    measured_per_kcycle = 1000.0 * emc_events / report.total_cycles
    assert measured_per_kcycle <= budget.emc_per_kcycle, (
        f"measured {measured_per_kcycle:.6f} EMC/kcycle exceeds the "
        f"proven bound {budget.emc_per_kcycle}")

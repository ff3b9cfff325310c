"""Admission control, scheduling, quotas, eviction, and determinism."""

from dataclasses import fields

import pytest

from repro.core.boot import EreborSystem
from repro.fleet import (
    AdmissionConfig,
    AdmissionController,
    TenantQuota,
    run_fleet,
)
from repro.fleet.goldens import SMP_PARAMS

MIB = 1024 * 1024


# --------------------------------------------------------------------------- #
# controller unit behaviour (pure policy, no machine)
# --------------------------------------------------------------------------- #

def test_admit_when_inside_quota_and_slot_free():
    ctl = AdmissionController()
    d = ctl.decide("t0", requested_bytes=MIB, active={}, queued=0,
                   free_slots=2)
    assert (d.action, d.reason) == ("admit", "")


def test_queue_when_pool_exhausted_then_reject_on_backpressure():
    ctl = AdmissionController(AdmissionConfig(queue_depth=1))
    d = ctl.decide("t0", requested_bytes=MIB, active={}, queued=0,
                   free_slots=0)
    assert (d.action, d.reason) == ("queue", "pool-exhausted")
    d = ctl.decide("t0", requested_bytes=MIB, active={}, queued=1,
                   free_slots=0)
    assert (d.action, d.reason) == ("reject", "backpressure")


def test_tenant_session_quota_queues():
    ctl = AdmissionController(AdmissionConfig(
        quotas={"t0": TenantQuota(max_active_sessions=1)}))
    d = ctl.decide("t0", requested_bytes=MIB, active={"t0": (1, MIB)},
                   queued=0, free_slots=4)
    assert (d.action, d.reason) == ("queue", "tenant-quota")
    # other tenants are unaffected
    assert ctl.decide("t1", requested_bytes=MIB, active={"t0": (1, MIB)},
                      queued=0, free_slots=4).action == "admit"


def test_memory_quota_rejects_impossible_and_queues_transient():
    ctl = AdmissionController(AdmissionConfig(
        quotas={"t0": TenantQuota(max_confined_bytes=2 * MIB)}))
    # more than the tenant ceiling: can never be satisfied
    d = ctl.decide("t0", requested_bytes=3 * MIB, active={}, queued=0,
                   free_slots=4)
    assert (d.action, d.reason) == ("reject", "memory-quota")
    # over the ceiling only because of current usage: wait it out
    d = ctl.decide("t0", requested_bytes=MIB, active={"t0": (1, 2 * MIB)},
                   queued=0, free_slots=4)
    assert (d.action, d.reason) == ("queue", "memory-quota")


def test_decisions_are_deterministic():
    ctl = AdmissionController()
    args = dict(requested_bytes=MIB, active={"t0": (1, MIB)}, queued=2,
                free_slots=0)
    assert all(ctl.decide("t0", **args) == ctl.decide("t0", **args)
               for _ in range(3))


# --------------------------------------------------------------------------- #
# full fleet behaviour (helloworld: cheap, still end-to-end attested)
# --------------------------------------------------------------------------- #

def fleet(**kw):
    defaults = dict(workload="helloworld", clients=3, requests=2,
                    pool_size=1, tenants=3, seed=11, scale=1.0)
    defaults.update(kw)
    report, _system = run_fleet(**defaults)
    return report


def test_queue_drains_when_slots_free_up():
    report = fleet()
    # one slot, three clients: 1 admitted up front, 2 queued, all served
    assert report.counts["admit"] == 1
    assert report.counts["queue"] == 2
    assert report.outcomes == {"completed": 3}
    assert report.requests_served == 6
    # the recycled slot produced warm starts for the queued sessions
    kinds = sorted(s["start_kind"] for s in report.sessions)
    assert kinds == ["fork", "warm", "warm"]


def test_backpressure_rejects_beyond_queue_depth():
    report = fleet(admission=AdmissionConfig(queue_depth=1))
    assert report.counts["reject"] == 1
    assert report.outcomes == {"completed": 2, "rejected": 1}
    rejected = [s for s in report.sessions if s["outcome"] == "rejected"]
    assert rejected[0]["reason"] == "backpressure"


def test_emc_quota_evicts_and_pool_recovers():
    admission = AdmissionConfig(
        queue_depth=8,
        quotas={"tenant-0": TenantQuota(max_emc_per_request=1)})
    report = fleet(clients=2, tenants=2, pool_size=2, admission=admission)
    # tenant-0's first request blows the EMC allowance -> evicted;
    # tenant-1 is untouched and completes
    assert report.counts["evict"] == 1
    assert report.outcomes == {"completed": 1, "evicted": 1}
    evicted = [s for s in report.sessions if s["outcome"] == "evicted"]
    assert evicted[0]["tenant"] == "tenant-0"
    assert evicted[0]["reason"] == "emc-quota"


def test_fork_and_warm_starts_beat_cold_by_5x():
    report = fleet()
    assert report.fork_speedup() >= 5
    assert report.warm_speedup() >= 5


def test_large_queue_drains_in_fifo_order():
    # 24 clients against one slot: the deque-based queue admits exactly
    # one up front, parks 23, and re-admits them strictly FIFO as the
    # slot recycles — nobody is starved, reordered, or double-visited
    report = fleet(clients=24, requests=1, tenants=24, pool_size=1,
                   seed=9, admission=AdmissionConfig(queue_depth=24))
    assert report.counts["admit"] == 1
    assert report.counts["queue"] == 23
    assert report.counts["reject"] == 0
    assert report.outcomes == {"completed": 24}
    names = [s["name"] for s in report.sessions]
    assert names == [f"client-{i}" for i in range(24)]


def test_memory_quota_charges_actual_private_bytes(system, template):
    """CoW-aware quotas: tenants are billed for pages they dirtied.

    The tenant ceiling leaves 64 KiB of headroom beyond one template
    image. Under the old accounting — every active session billed the
    template's full virtual size — a second session could never admit;
    charging the actual private CoW footprint (a few dirtied pages)
    admits it.
    """
    from repro.fleet.pool import PoolConfig, WarmPool
    from repro.fleet.scheduler import ClientSession, FleetScheduler

    quota = template.confined_bytes + 64 * 1024
    ctl = AdmissionController(AdmissionConfig(
        quotas={"t0": TenantQuota(max_confined_bytes=quota)}))
    pool = WarmPool(system, template, PoolConfig(size=2))
    sched = FleetScheduler(system, pool, template.work, ctl)

    first = ClientSession(name="c0", tenant="t0", seed=1,
                          payloads=[b"req-a", b"req-b"], secret=b"s0")
    assert sched.submit(first).action == "admit"
    sched.step()                    # serve one request: dirties CoW pages
    used = sched._active_by_tenant()["t0"][1]
    assert 0 < used <= 64 * 1024    # a handful of pages, not the image

    # template-sized accounting would bust the ceiling and queue...
    stale = ctl.decide("t0", requested_bytes=template.confined_bytes,
                       active={"t0": (1, template.confined_bytes)},
                       queued=0, free_slots=1)
    assert stale.action == "queue"
    # ...actual-footprint accounting admits the second session
    second = ClientSession(name="c1", tenant="t0", seed=2,
                           payloads=[b"req-c"], secret=b"s1")
    assert sched.submit(second).action == "admit"

    while sched.active:
        sched.step()
    assert all(s.outcome == "completed" for s in sched.finished)


def test_two_seeded_repeats_are_byte_identical():
    r1 = fleet(seed=77)
    r2 = fleet(seed=77)
    assert r1.to_json() == r2.to_json()
    assert r1.digest() == r2.digest()


def test_different_seed_changes_the_run():
    assert fleet(seed=77).digest() != fleet(seed=78).digest()


def test_run_fleet_leaves_only_the_booted_systems_fields():
    # the live pool, scheduler and certificates belong to the Fleet that
    # build_fleet returns, never to attributes bolted onto the system
    _report, system = run_fleet(certificates=True, **SMP_PARAMS)
    assert set(vars(system)) == {f.name for f in fields(EreborSystem)}

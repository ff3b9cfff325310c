"""Fleet-scale request tracing: hygiene, completeness, determinism.

The acceptance surface of the tentpole: every request in a seeded fleet
run has a complete causal span tree retrievable by its deterministic
trace ID; IDs never survive warm-pool reuse (C8); no ID ever appears in
another tenant's events; SLO breaches name the offending trace as an
exemplar; and two seeded runs produce byte-identical span-tree digests.
"""

import json

import pytest

from repro.core.channel import trace_aad
from repro.crypto import SealedSession
from repro.fleet import SandboxTemplate, WarmPool, build_fleet
from repro.fleet.pool import PoolConfig
from repro.fleet.scheduler import SloConfig
from repro.obs import install
from repro.obs.reqtrace import RequestTraceIndex, mint_trace_id

EIGHT_TENANT = dict(workload="helloworld", clients=8, requests=2,
                    pool_size=4, tenants=8, seed=7, scale=1.0)


def traced_fleet(slo=None, **params):
    """One fleet run with the tracer armed; returns (report, tracer, fleet)."""
    fleet = build_fleet(
        instrument=lambda machine: install(machine.clock, capacity=1 << 19),
        slo=slo, **params)
    fleet.scheduler.run(fleet.sessions)
    report = fleet.report()
    tracer = fleet.machine.clock.tracer
    tracer.finish()
    return report, tracer, fleet


@pytest.fixture(scope="module")
def eight_tenant():
    report, tracer, fleet = traced_fleet(**EIGHT_TENANT)
    index = RequestTraceIndex.from_tracer(tracer, names=report.traces)
    return report, tracer, fleet, index


# --------------------------------------------------------------------------- #
# complete causal trees, deterministic IDs
# --------------------------------------------------------------------------- #

def test_every_session_has_a_complete_causal_tree(eight_tenant):
    report, tracer, _fleet, index = eight_tenant
    assert tracer.dropped == 0
    assert len(report.traces) == EIGHT_TENANT["clients"]
    for name, trace_id in report.traces.items():
        assert index.resolve(name) == trace_id
        assert index.complete(trace_id), f"{name} tree is truncated"


def test_trace_ids_are_minted_deterministically(eight_tenant):
    # IDs are pure functions of (session seed, session name): the seeded
    # client population alone recovers the exact IDs the run minted
    report, _tracer, fleet, _index = eight_tenant
    assert report.traces == {
        s.name: mint_trace_id(s.seed, s.name) for s in fleet.sessions}


def test_trace_ids_ride_outside_the_digest_preimage(eight_tenant):
    report, _tracer, _fleet, _index = eight_tenant
    assert "traces" in report.to_dict()
    assert "traces" not in report._base_dict()
    for session in report.sessions:
        assert "trace_id" not in session


# --------------------------------------------------------------------------- #
# hygiene: no leakage across tenants or pool reuse
# --------------------------------------------------------------------------- #

def test_no_cross_tenant_trace_leakage(eight_tenant):
    report, _tracer, _fleet, index = eight_tenant
    tenant_of = {s["name"]: s["tenant"] for s in report.sessions}
    for name, trace_id in report.traces.items():
        for event in index.events(trace_id):
            session = event.args.get("session")
            if session is not None:
                assert session == name, (
                    f"trace {trace_id} ({name}) contains an event for "
                    f"session {session}")
            tenant = event.args.get("tenant")
            if tenant is not None:
                assert tenant == tenant_of[name]


def test_trace_context_never_survives_pool_reuse(eight_tenant):
    # 8 sessions over 4 slots forces reuse: after the fleet drains, every
    # slot's sandbox must have been scrubbed back to a contextless state
    _report, _tracer, fleet, _index = eight_tenant
    for slot in fleet.pool.slots:
        assert slot.instance.sandbox.trace_context is None


def test_scrub_clears_trace_context(system, template):
    pool = WarmPool(system, template, PoolConfig(size=1))
    slot = pool.acquire()
    sandbox = slot.instance.sandbox
    sandbox.trace_context = "feedfacefeedface"
    pool.release(slot)                      # C8 scrub path
    assert sandbox.trace_context is None
    # and the kill path
    slot = pool.acquire()
    slot.instance.sandbox.trace_context = "feedfacefeedface"
    slot.instance.sandbox.kill("test")
    assert slot.instance.sandbox.trace_context is None


# --------------------------------------------------------------------------- #
# determinism across reruns
# --------------------------------------------------------------------------- #

def test_seeded_reruns_produce_byte_identical_tree_digests():
    params = dict(EIGHT_TENANT, clients=4, tenants=4, pool_size=2)

    def digests():
        report, tracer, _fleet = traced_fleet(**params)
        index = RequestTraceIndex.from_tracer(tracer, names=report.traces)
        return json.dumps(index.digests(), sort_keys=True).encode()

    assert digests() == digests()


# --------------------------------------------------------------------------- #
# SLO breaches carry the offending trace ID
# --------------------------------------------------------------------------- #

def test_slo_breach_names_the_offending_trace():
    # few tenants so the per-(tenant, metric) histograms reach
    # min_samples and 1-cycle objectives actually breach
    slo = SloConfig(queue_wait_p95=1, service_p95=1, e2e_p99=1)
    report, tracer, _fleet = traced_fleet(
        slo=slo, workload="helloworld", clients=4, requests=2,
        pool_size=2, tenants=2, seed=7, scale=1.0)
    breaches = report.slo["breaches"]
    assert breaches, "1-cycle objectives must breach"
    index = RequestTraceIndex.from_tracer(tracer, names=report.traces)
    service_breaches = [b for b in breaches if b["metric"] != "queue_wait"]
    assert service_breaches
    for b in service_breaches:
        # service/e2e breaches are observed inside the session's binding:
        # the breach names the request that crossed the threshold
        assert b["trace_id"], f"breach {b} carries no trace exemplar"
        assert b["trace_id"] in index.by_trace
        assert b["trace_id"] in report.traces.values()


# --------------------------------------------------------------------------- #
# channel binding: the ID is cryptographically bound, not framed
# --------------------------------------------------------------------------- #

def test_record_sealed_for_another_trace_fails_authentication():
    key = b"k" * 32
    tx, rx = SealedSession(key), SealedSession(key)
    record = tx.seal(b"payload", aad=trace_aad("a" * 16))
    with pytest.raises(Exception):
        rx.open(record, aad=trace_aad("b" * 16))
    # matching context authenticates
    record = SealedSession(key).seal(b"payload", aad=trace_aad("a" * 16))
    assert rx.open(record, aad=trace_aad("a" * 16)) == b"payload"


def test_untraced_aad_is_byte_compatible():
    assert trace_aad(None) == b""
    assert trace_aad(None, b"chunk") == b"chunk"
    assert trace_aad("ab", b"chunk") == b"erebor-trace:abchunk"


# --------------------------------------------------------------------------- #
# admission rulings are trace-aware
# --------------------------------------------------------------------------- #

def test_admission_log_joins_against_the_trace_index(eight_tenant):
    report, _tracer, fleet, _index = eight_tenant
    log = fleet.scheduler.controller.log
    assert len(log) >= EIGHT_TENANT["clients"]
    ids = set(report.traces.values())
    for _tenant, action, _reason, trace_id in log:
        assert action in ("admit", "queue", "reject")
        assert trace_id in ids

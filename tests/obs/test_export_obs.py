"""Exporters against a real instrumented run (acceptance criteria)."""

import json

from repro.obs.export import chrome_trace, prometheus_text, trace_json
from repro.obs.schema import (
    check_chrome_trace,
    check_export,
    validate_chrome_trace,
    validate_export,
)


def _spans(trace, prefix):
    return [e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"].startswith(prefix)]


def test_chrome_trace_is_valid_and_nested(observed):
    trace = chrome_trace(observed.tracer)
    check_chrome_trace(trace)
    json.dumps(trace)                      # must be serializable as-is

    gates = _spans(trace, "gate")
    emcs = _spans(trace, "emc:")
    syscalls = _spans(trace, "syscall:")
    assert gates and emcs and syscalls

    # nesting: every emc span sits inside some gate span's cycle window
    emc = emcs[0]
    begin = emc["args"]["cycles_begin"]
    end = begin + emc["args"]["cycles_dur"]
    assert any(g["args"]["cycles_begin"] <= begin
               and end <= g["args"]["cycles_begin"] + g["args"]["cycles_dur"]
               for g in gates)
    # timestamps are microseconds at 2.1 GHz
    assert emc["ts"] == begin * 1e6 / 2_100_000_000
    assert trace["otherData"]["cpu_freq_hz"] == 2_100_000_000


def test_prometheus_export_has_per_sandbox_series(observed):
    text = prometheus_text(observed.clock)
    assert "# TYPE erebor_emc_total counter" in text
    # per-sandbox labelled counters (acceptance criterion b)
    assert 'sandbox="1"' in text
    assert "erebor_sandbox_exits_total" in text
    assert "kernel_page_faults_total" in text
    assert "erebor_emc_cycles_bucket" in text    # histograms render too


def test_json_bundle_passes_schema(bundle):
    check_export(bundle)
    assert validate_export(bundle) == []
    json.dumps(bundle)
    assert bundle["meta"]["workload"] == "helloworld"
    assert bundle["trace"]["events"]
    assert bundle["metrics"]["counters"]["erebor_emc_total"]


def test_trace_json_matches_ring(observed):
    data = trace_json(observed.tracer)
    assert len(data["events"]) == len(observed.tracer.events)
    assert data["dropped"] == observed.tracer.dropped
    assert data["clock"] == "simulated-cycles"


def test_schema_rejects_malformed_payloads():
    assert validate_export([]) != []
    assert validate_export({"meta": {}, "trace": {}, "metrics": {},
                            "profile": {}}) != []
    assert validate_chrome_trace({"traceEvents": [{"name": "x"}]}) != []


def test_bundle_meta_pins_dropped_and_audit_head(bundle):
    """Satellite: ring drop counts and the audit head are schema-required."""
    assert bundle["meta"]["dropped"] == bundle["trace"]["dropped"]
    assert isinstance(bundle["meta"]["dropped"], int)
    assert isinstance(bundle["meta"]["audit_head"], str)
    assert len(bundle["meta"]["audit_head"]) == 64   # a live sha256 head
    for key in ("dropped", "audit_head"):
        broken = {**bundle, "meta": {k: v for k, v in bundle["meta"].items()
                                     if k != key}}
        assert any(key in e for e in validate_export(broken))


def test_prometheus_surfaces_trace_ring_drops(observed):
    text = prometheus_text(observed.clock, observed.tracer)
    assert ("erebor_obs_trace_dropped_events_total "
            f"{observed.tracer.dropped}") in text
    # without a tracer the exposition is unchanged (back-compat)
    assert "erebor_obs_trace_dropped" not in prometheus_text(
        observed.clock)


def test_audit_events_appear_in_chrome_trace(observed):
    trace = chrome_trace(observed.tracer)
    audits = [e for e in trace["traceEvents"]
              if e.get("ph") == "i" and e["name"].startswith("audit:")]
    assert audits, "monitor audit decisions should reach the trace"
    assert all(e["args"].get("kind") == "audit" for e in audits)

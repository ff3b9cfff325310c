"""Differential run comparator: where did two runs stop agreeing?

``python -m repro.obs diff A B`` compares two obs bundles (or two
``{name: digest}`` maps) and emits a deterministic, schema-checked
divergence report that localizes every delta to **plane → span →
tenant**:

* **plane deltas** — the budget ledger's plane totals, machine-wide and
  per lane (:mod:`repro.obs.ledger`); any non-zero simulated delta is a
  divergence;
* **span deltas** — the folded causal profile's per-path self-cycles,
  so a plane-level delta can be chased to the call path that moved;
* **tenant deltas** — per-tenant counters from the metrics snapshot,
  so a fleet-level delta can be pinned on the client that behaved
  differently;
* **digest comparison** — serve/audit/cfg digests, plus a **first
  divergent audit seq**: the index of the first audit-chain record on
  which the two runs' tamper-evident logs disagree (the earliest
  causally-ordered point of divergence the monitor can attest to).

The determinism rule mirrors the repo's digest discipline: the same two
inputs always produce the byte-identical report (all orderings are
sorted: deltas by ``|delta|`` descending then name; ``json.dumps``
callers use ``sort_keys=True``). Two same-seed runs must compare clean —
``divergent: false`` with every simulated section empty — which is what
the ``perf-gate`` CI job asserts on every push.

Host-plane quantities (seconds, TLB hit rates, superblock coverage)
appear in the report but never flip ``divergent``: host timing is
noisy, so host cost is judged by ``perfbench/run.py``'s paired runs.
"""

from __future__ import annotations

import json

#: report schema version
DIFF_VERSION = 1


# --------------------------------------------------------------------------- #
# primitive delta builders (all deterministic: sorted |delta| desc, then name)
# --------------------------------------------------------------------------- #

def _delta_map(a: dict, b: dict) -> list[dict]:
    """Per-key deltas of two numeric maps, largest |delta| first."""
    deltas = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0), b.get(key, 0)
        if va != vb:
            deltas.append({"name": key, "a": va, "b": vb, "delta": vb - va})
    deltas.sort(key=lambda d: (-abs(d["delta"]), d["name"]))
    return deltas


def _collapsed_map(collapsed: list) -> dict:
    """Fold ``"path;to;span 123"`` lines into ``{path: cycles}``."""
    out: dict[str, int] = {}
    for line in collapsed or ():
        path, _, cycles = line.rpartition(" ")
        if path:
            out[path] = out.get(path, 0) + int(cycles)
    return out


def _tenant_counters(metrics: dict) -> dict:
    """Flatten per-tenant counters to ``{"counter{labels}": value}``."""
    out: dict[str, float] = {}
    for name, series in (metrics or {}).get("counters", {}).items():
        for labels, value in series.items():
            if "tenant=" in labels:
                out[f"{name}{{{labels}}}"] = value
    return out


def _audit_events(trace: dict) -> list:
    """The audit-chain records of a bundle's trace, in seq order."""
    return [e for e in (trace or {}).get("events", ())
            if e.get("kind") == "AUDIT" or e.get("cat") == "audit"]


def first_divergent_audit_seq(trace_a: dict, trace_b: dict):
    """Seq of the first audit record the two runs disagree on, or None.

    Audit seq is position in the chain (the monitor numbers from 0), so
    the index of the first differing record *is* the divergent seq. A
    pure length difference diverges at the shorter chain's end.
    """
    ev_a, ev_b = _audit_events(trace_a), _audit_events(trace_b)
    for seq, (ea, eb) in enumerate(zip(ev_a, ev_b)):
        if (ea.get("name"), ea.get("begin"), ea.get("args")) != \
                (eb.get("name"), eb.get("begin"), eb.get("args")):
            return seq
    if len(ev_a) != len(ev_b):
        return min(len(ev_a), len(ev_b))
    return None


# --------------------------------------------------------------------------- #
# the comparators
# --------------------------------------------------------------------------- #

def diff_digest_maps(a: dict, b: dict, *, label_a: str = "A",
                     label_b: str = "B") -> dict:
    """Compare two ``{name: digest}`` maps (e.g. trace-tree digest maps).

    Any mismatched or one-sided entry is a divergence.
    """
    mismatches = []
    for name in sorted(set(a) | set(b)):
        da, db = a.get(name, ""), b.get(name, "")
        if da != db:
            mismatches.append({"name": name, "a": da, "b": db})
    return {
        "version": DIFF_VERSION,
        "mode": "digest-map",
        "inputs": {"a": label_a, "b": label_b},
        "divergent": bool(mismatches),
        "digest_mismatches": mismatches,
        "compared": len(set(a) | set(b)),
    }


def diff_bundles(a: dict, b: dict, *, label_a: str = "A",
                 label_b: str = "B") -> dict:
    """Compare two obs bundles; returns the divergence report dict.

    Simulated divergence (what flips ``divergent``): any cycle-count
    delta (total, wall, per-lane, per-plane, per-span, per-tenant
    simulated counters) or any digest/audit-head mismatch. Host-plane
    fields ride along informationally.
    """
    meta_a, meta_b = a.get("meta", {}), b.get("meta", {})
    led_a, led_b = a.get("ledger", {}), b.get("ledger", {})

    simulated = _delta_map(
        {k: meta_a.get(k, 0) for k in ("cycles", "wall_cycles")},
        {k: meta_b.get(k, 0) for k in ("cycles", "wall_cycles")})
    lanes_a = {f"lane:{name}": sum(lane.get("tags", {}).values())
               for name, lane in led_a.get("lanes", {}).items()}
    lanes_b = {f"lane:{name}": sum(lane.get("tags", {}).values())
               for name, lane in led_b.get("lanes", {}).items()}
    simulated += _delta_map(lanes_a, lanes_b)

    plane_deltas = _delta_map(led_a.get("planes", {}),
                              led_b.get("planes", {}))
    span_deltas = _delta_map(
        _collapsed_map(a.get("profile", {}).get("collapsed")),
        _collapsed_map(b.get("profile", {}).get("collapsed")))
    tenant_deltas = _delta_map(_tenant_counters(a.get("metrics")),
                               _tenant_counters(b.get("metrics")))

    digests = []
    for key in ("audit_head", "cfg_report_digest",
                "dataflow_report_digest"):
        da, db = meta_a.get(key, ""), meta_b.get(key, "")
        if da != db:
            digests.append({"name": key, "a": da, "b": db})
    audit_seq = None
    if any(d["name"] == "audit_head" for d in digests):
        audit_seq = first_divergent_audit_seq(a.get("trace", {}),
                                              b.get("trace", {}))

    divergent = bool(simulated or plane_deltas or span_deltas
                     or tenant_deltas or digests)
    return {
        "version": DIFF_VERSION,
        "mode": "bundle",
        "inputs": {"a": label_a, "b": label_b,
                   "workload": meta_a.get("workload", ""),
                   "setting": meta_a.get("setting", "")},
        "divergent": divergent,
        "simulated_deltas": simulated,
        "plane_deltas": plane_deltas,
        "span_deltas": span_deltas,
        "tenant_deltas": tenant_deltas,
        "digest_mismatches": digests,
        "first_divergent_audit_seq": audit_seq,
        # host-plane comparison: informational, never flips `divergent`
        "host": {
            "seconds": {"a": meta_a.get("seconds", 0.0),
                        "b": meta_b.get("seconds", 0.0)},
            "translation": {"a": led_a.get("translation", {}),
                            "b": led_b.get("translation", {})},
        },
    }


def _is_digest_map(payload: dict) -> bool:
    return (bool(payload) and "meta" not in payload
            and all(isinstance(v, str) for v in payload.values()))


def diff_any(a: dict, b: dict, *, label_a: str = "A",
             label_b: str = "B") -> dict:
    """Dispatch by shape: obs bundles vs plain digest maps."""
    if _is_digest_map(a) and _is_digest_map(b):
        return diff_digest_maps(a, b, label_a=label_a, label_b=label_b)
    return diff_bundles(a, b, label_a=label_a, label_b=label_b)


def render_report(report: dict) -> str:
    """Human-readable summary of a divergence report (CLI stderr); each
    delta section lists its first ten entries."""
    limit = 10
    lines = []
    verdict = "DIVERGENT" if report.get("divergent") else "identical"
    lines.append(f"obs diff [{report.get('mode')}] "
                 f"{report['inputs'].get('a')} vs "
                 f"{report['inputs'].get('b')}: {verdict}")
    for section in ("simulated_deltas", "plane_deltas", "span_deltas",
                    "tenant_deltas"):
        deltas = report.get(section, [])
        if deltas:
            lines.append(f"  {section.replace('_', ' ')} "
                         f"({len(deltas)}):")
            for d in deltas[:limit]:
                lines.append(f"    {d['name']}: {d['a']} -> {d['b']} "
                             f"({d['delta']:+d})" if isinstance(
                                 d['delta'], int) else
                             f"    {d['name']}: {d['a']} -> {d['b']}")
            if len(deltas) > limit:
                lines.append(f"    ... {len(deltas) - limit} more")
    for d in report.get("digest_mismatches", []):
        lines.append(f"  digest {d['name']}: {d['a'][:16]}... != "
                     f"{d['b'][:16]}...")
    seq = report.get("first_divergent_audit_seq")
    if seq is not None:
        lines.append(f"  first divergent audit seq: {seq}")
    return "\n".join(lines)


def gate_report(report: dict) -> dict:
    """Gate verdict for one diff report: simulated divergence fails."""
    failures = []
    if report.get("mode") == "digest-map":
        for d in report.get("digest_mismatches", []):
            failures.append(f"digest {d['name']} differs")
    else:
        for d in report.get("simulated_deltas", []):
            failures.append(f"simulated {d['name']} differs by "
                            f"{d['delta']:+d}")
        for d in report.get("plane_deltas", []):
            failures.append(f"plane {d['name']} differs by {d['delta']:+d}")
        for d in report.get("digest_mismatches", []):
            failures.append(f"digest {d['name']} differs")
    return {"ok": not failures, "failures": failures}


def dumps_report(report: dict) -> str:
    """Canonical JSON form of a report (sorted keys, stable bytes)."""
    return json.dumps(report, sort_keys=True, indent=1)

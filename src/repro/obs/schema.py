"""Hand-rolled schema checks for the obs export formats (zero-dependency).

CI's smoke job runs ``python -m repro.obs --workload helloworld --export
json`` and validates the output with :func:`check_export`; tests validate
the Chrome trace with :func:`check_chrome_trace`. These are deliberately
small structural checks — presence and types of the load-bearing fields —
not a full JSON-Schema implementation (the container must not grow
dependencies).
"""

from __future__ import annotations

_EVENT_KEYS = {"name", "cat", "kind", "begin", "end", "depth", "path", "args"}


def validate_export(obj) -> list[str]:
    """Return a list of problems with an obs JSON bundle (empty = valid)."""
    errors: list[str] = []

    def need(container, key, types, where):
        if not isinstance(container, dict) or key not in container:
            errors.append(f"{where}: missing key {key!r}")
            return None
        value = container[key]
        if not isinstance(value, types):
            errors.append(f"{where}.{key}: expected {types}, "
                          f"got {type(value).__name__}")
            return None
        return value

    if not isinstance(obj, dict):
        return [f"top level: expected dict, got {type(obj).__name__}"]

    meta = need(obj, "meta", dict, "top")
    if meta is not None:
        need(meta, "workload", str, "meta")
        need(meta, "setting", str, "meta")
        need(meta, "cycles", int, "meta")
        need(meta, "seconds", (int, float), "meta")
        wall = need(meta, "wall_cycles", int, "meta")
        per_cpu = need(meta, "per_cpu_cycles", list, "meta")
        if wall is not None and per_cpu:
            if wall != max(per_cpu):
                errors.append("meta.wall_cycles: not the max over "
                              "meta.per_cpu_cycles")
        # ring-buffer health and the audit-chain head are load-bearing:
        # a bundle that silently lost events, or that cannot be tied to
        # the monitor's tamper-evident log, must not validate
        need(meta, "dropped", int, "meta")
        need(meta, "audit_head", str, "meta")
        # the CFG-verifier digest is optional (older bundles predate it)
        # but must be a string when present
        if "cfg_report_digest" in meta:
            need(meta, "cfg_report_digest", str, "meta")
        if "dataflow_report_digest" in meta:
            need(meta, "dataflow_report_digest", str, "meta")

    trace = need(obj, "trace", dict, "top")
    if trace is not None:
        need(trace, "dropped", int, "trace")
        events = need(trace, "events", list, "trace")
        if events is not None:
            for i, event in enumerate(events[:64] + events[-8:]):
                if not isinstance(event, dict):
                    errors.append(f"trace.events[{i}]: not a dict")
                    continue
                missing = _EVENT_KEYS - set(event)
                if missing:
                    errors.append(f"trace.events[{i}]: missing {sorted(missing)}")
                elif event["end"] < event["begin"]:
                    errors.append(f"trace.events[{i}]: end < begin")

    metrics = need(obj, "metrics", dict, "top")
    if metrics is not None:
        for section in ("counters", "gauges", "histograms"):
            series = need(metrics, section, dict, "metrics")
            if series is None:
                continue
            for name, by_label in series.items():
                if not isinstance(by_label, dict):
                    errors.append(f"metrics.{section}.{name}: not a dict")
        # windowed latency series are optional (only SLO runs have them)
        windowed = metrics.get("windowed", {})
        if not isinstance(windowed, dict):
            errors.append("metrics.windowed: not a dict")
            windowed = {}
        for name, by_label in windowed.items():
            if not isinstance(by_label, dict):
                errors.append(f"metrics.windowed.{name}: not a dict")
                continue
            for key, summary in by_label.items():
                where = f"metrics.windowed.{name}.{key}"
                need(summary, "count", int, where)
                for q in ("p50", "p95", "p99"):
                    need(summary, q, (int, float, type(None)), where)
                need(summary, "window_cycles", int, where)
                need(summary, "windows", int, where)

    profile = need(obj, "profile", dict, "top")
    if profile is not None:
        need(profile, "total_cycles", int, "profile")
        collapsed = need(profile, "collapsed", list, "profile")
        if collapsed is not None:
            for i, line in enumerate(collapsed[:64]):
                if (not isinstance(line, str) or " " not in line
                        or not line.rsplit(" ", 1)[1].isdigit()):
                    errors.append(f"profile.collapsed[{i}]: not a "
                                  f"'path cycles' line: {line!r}")

    # the budget ledger is optional (older bundles predate it) but must
    # be internally conserved when present
    if "ledger" in obj:
        errors.extend(validate_ledger(obj["ledger"]))

    return errors


def check_export(obj) -> None:
    """Raise ``ValueError`` listing every schema problem (None if valid)."""
    errors = validate_export(obj)
    if errors:
        raise ValueError("obs export failed schema check:\n  "
                         + "\n  ".join(errors))


def validate_ledger(obj) -> list[str]:
    """Structural + conservation check of one budget ledger
    (:func:`repro.obs.ledger.capture_ledger`)."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"ledger: expected dict, got {type(obj).__name__}"]
    for key, types in (("version", int), ("cycles", int),
                       ("wall_cycles", int),
                       ("wall_seconds", (int, float)),
                       ("per_cpu_cycles", list), ("per_cpu_busy", list),
                       ("lanes", dict), ("planes", dict),
                       ("conservation", dict)):
        if key not in obj:
            errors.append(f"ledger: missing key {key!r}")
        elif not isinstance(obj[key], types):
            errors.append(f"ledger.{key}: expected "
                          f"{getattr(types, '__name__', types)}, "
                          f"got {type(obj[key]).__name__}")
    lanes = obj.get("lanes")
    if isinstance(lanes, dict):
        for name, lane in lanes.items():
            if not isinstance(lane, dict):
                errors.append(f"ledger.lanes[{name!r}]: not a dict")
                continue
            for key in ("busy", "planes", "tags"):
                if key not in lane:
                    errors.append(f"ledger.lanes[{name!r}]: "
                                  f"missing key {key!r}")
            for section in ("planes", "tags"):
                body = lane.get(section)
                if isinstance(body, dict):
                    for tag, cycles in body.items():
                        if not isinstance(cycles, int) or cycles < 0:
                            errors.append(
                                f"ledger.lanes[{name!r}].{section}"
                                f"[{tag!r}]: not a non-negative int")
    conservation = obj.get("conservation")
    if isinstance(conservation, dict):
        if not isinstance(conservation.get("ok"), bool):
            errors.append("ledger.conservation.ok: missing or not a bool")
        elif not conservation["ok"]:
            for violation in conservation.get("violations", ()):
                errors.append(f"ledger.conservation: {violation}")
    # re-derive the invariant rather than trusting the embedded verdict
    if not errors:
        from .ledger import verify_conservation
        rerun = verify_conservation(obj)
        for violation in rerun["violations"]:
            errors.append(f"ledger (re-derived): {violation}")
    return errors


def check_ledger(obj) -> None:
    errors = validate_ledger(obj)
    if errors:
        raise ValueError("budget ledger failed schema check:\n  "
                         + "\n  ".join(errors))


def validate_diff_report(obj) -> list[str]:
    """Structural check of one divergence report
    (:func:`repro.obs.diff.diff_any`)."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"diff: expected dict, got {type(obj).__name__}"]
    for key, types in (("version", int), ("mode", str),
                       ("inputs", dict), ("divergent", bool),
                       ("digest_mismatches", list)):
        if key not in obj:
            errors.append(f"diff: missing key {key!r}")
        elif not isinstance(obj[key], types):
            errors.append(f"diff.{key}: expected {types.__name__}, "
                          f"got {type(obj[key]).__name__}")
    mode = obj.get("mode")
    if mode not in ("bundle", "digest-map"):
        errors.append(f"diff.mode: unknown mode {mode!r}")
    if mode == "bundle":
        for section in ("simulated_deltas", "plane_deltas",
                        "span_deltas", "tenant_deltas"):
            deltas = obj.get(section)
            if not isinstance(deltas, list):
                errors.append(f"diff.{section}: missing or not a list")
                continue
            for i, d in enumerate(deltas):
                if not isinstance(d, dict) or not {"name", "a", "b",
                                                   "delta"} <= set(d):
                    errors.append(f"diff.{section}[{i}]: "
                                  "missing name/a/b/delta")
        seq = obj.get("first_divergent_audit_seq")
        if seq is not None and not isinstance(seq, int):
            errors.append("diff.first_divergent_audit_seq: not an int")
    for i, d in enumerate(obj.get("digest_mismatches") or []):
        if not isinstance(d, dict) or not {"name", "a", "b"} <= set(d):
            errors.append(f"diff.digest_mismatches[{i}]: "
                          "missing name/a/b")
    # the verdict must agree with the evidence
    if isinstance(obj.get("divergent"), bool):
        has_deltas = bool(obj.get("digest_mismatches")) or any(
            obj.get(s) for s in ("simulated_deltas", "plane_deltas",
                                 "span_deltas", "tenant_deltas"))
        if obj["divergent"] != has_deltas:
            errors.append("diff.divergent: verdict disagrees with the "
                          "recorded deltas")
    return errors


def check_diff_report(obj) -> None:
    errors = validate_diff_report(obj)
    if errors:
        raise ValueError("diff report failed schema check:\n  "
                         + "\n  ".join(errors))


def validate_chrome_trace(obj) -> list[str]:
    """Structural check of a Chrome ``trace_event`` dict."""
    errors: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["missing traceEvents"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            errors.append(f"traceEvents[{i}]: not a dict")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                errors.append(f"traceEvents[{i}]: missing {key!r}")
        ph = e.get("ph")
        if ph in ("X", "i") and "ts" not in e:
            errors.append(f"traceEvents[{i}]: missing ts")
        if ph == "X" and e.get("dur", -1) < 0:
            errors.append(f"traceEvents[{i}]: X event without dur >= 0")
    return errors


def check_chrome_trace(obj) -> None:
    errors = validate_chrome_trace(obj)
    if errors:
        raise ValueError("chrome trace failed schema check:\n  "
                         + "\n  ".join(errors))


def validate_flight_dump(obj) -> list[str]:
    """Structural check of one frozen flight-recorder black box."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level: expected dict, got {type(obj).__name__}"]
    for key, types in (("reason", str), ("detail", str),
                       ("trace_id", str), ("cycle", int),
                       ("window", dict), ("dropped", int),
                       ("window_complete", bool), ("audit_head", str),
                       ("wall_cycles", int), ("per_cpu_cycles", list),
                       ("per_cpu", dict), ("utilization", dict),
                       ("ledger", dict), ("traceEvents", list)):
        if key not in obj:
            errors.append(f"flight: missing key {key!r}")
        elif not isinstance(obj[key], types):
            errors.append(f"flight.{key}: expected {types.__name__}, "
                          f"got {type(obj[key]).__name__}")
    window = obj.get("window")
    if isinstance(window, dict):
        for key in ("start", "end", "lookback_kcycles"):
            if not isinstance(window.get(key), int):
                errors.append(f"flight.window.{key}: missing or not an int")
        if (isinstance(window.get("start"), int)
                and isinstance(window.get("end"), int)
                and window["end"] < window["start"]):
            errors.append("flight.window: end < start")
    per_cpu = obj.get("per_cpu")
    if isinstance(per_cpu, dict):
        for lane, body in per_cpu.items():
            if not isinstance(body, dict):
                errors.append(f"flight.per_cpu[{lane!r}]: not a dict")
                continue
            if not isinstance(body.get("events"), list):
                errors.append(f"flight.per_cpu[{lane!r}].events: not a list")
    if isinstance(obj.get("ledger"), dict) and obj["ledger"]:
        errors.extend(validate_ledger(obj["ledger"]))
    if isinstance(obj.get("traceEvents"), list):
        errors.extend(validate_chrome_trace(
            {"traceEvents": obj["traceEvents"]}))
    return errors


def check_flight_dump(obj) -> None:
    errors = validate_flight_dump(obj)
    if errors:
        raise ValueError("flight dump failed schema check:\n  "
                         + "\n  ".join(errors))


def validate_request_trace(obj) -> list[str]:
    """Structural check of one rebuilt causal span tree (a list of root
    nodes as produced by ``SpanNode.to_dict``)."""
    errors: list[str] = []
    if not isinstance(obj, list):
        return [f"request trace: expected list of roots, "
                f"got {type(obj).__name__}"]

    def walk(node, where):
        if not isinstance(node, dict):
            errors.append(f"{where}: not a dict")
            return
        for key, types in (("name", str), ("kind", str), ("begin", int),
                           ("end", int), ("args", dict),
                           ("children", list)):
            if key not in node:
                errors.append(f"{where}: missing key {key!r}")
            elif not isinstance(node[key], types):
                errors.append(f"{where}.{key}: expected {types.__name__}, "
                              f"got {type(node[key]).__name__}")
        if isinstance(node.get("begin"), int) \
                and isinstance(node.get("end"), int):
            if node["end"] < node["begin"]:
                errors.append(f"{where}: end < begin")
            for i, child in enumerate(node.get("children") or []):
                walk(child, f"{where}.children[{i}]")
                if (isinstance(child, dict)
                        and isinstance(child.get("begin"), int)
                        and isinstance(child.get("end"), int)
                        and not (node["begin"] <= child["begin"]
                                 and child["end"] <= node["end"])):
                    errors.append(f"{where}.children[{i}]: not contained "
                                  "in parent interval")

    for i, root in enumerate(obj):
        walk(root, f"roots[{i}]")
    return errors


def check_request_trace(obj) -> None:
    errors = validate_request_trace(obj)
    if errors:
        raise ValueError("request trace failed schema check:\n  "
                         + "\n  ".join(errors))


def validate_hostprof_report(obj) -> list[str]:
    """Structural check of a host-time attribution report
    (``HostProfiler.report()``)."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"hostprof: expected dict, got {type(obj).__name__}"]
    for key, types in (("window_s", (int, float)),
                       ("attributed_s", (int, float)),
                       ("unattributed_s", (int, float)),
                       ("coverage", (int, float)), ("entries", int),
                       ("entry_overhead_us", (int, float)),
                       ("subsystems", list)):
        if key not in obj:
            errors.append(f"hostprof: missing key {key!r}")
        elif not isinstance(obj[key], types):
            errors.append(f"hostprof.{key}: wrong type "
                          f"{type(obj[key]).__name__}")
    for i, row in enumerate(obj.get("subsystems") or []):
        if not isinstance(row, dict):
            errors.append(f"hostprof.subsystems[{i}]: not a dict")
            continue
        for key, types in (("name", str), ("self_s", (int, float)),
                           ("share", (int, float)), ("calls", int)):
            if not isinstance(row.get(key), types):
                errors.append(f"hostprof.subsystems[{i}].{key}: "
                              "missing or wrong type")
    shares = [r.get("share", 0) for r in obj.get("subsystems") or []
              if isinstance(r, dict)]
    if shares and sum(shares) > 1.02:   # self-time shares cannot exceed 1
        errors.append("hostprof.subsystems: shares sum past 1.0 "
                      f"({sum(shares):.3f}) — double counting")
    return errors


def check_hostprof_report(obj) -> None:
    errors = validate_hostprof_report(obj)
    if errors:
        raise ValueError("hostprof report failed schema check:\n  "
                         + "\n  ".join(errors))

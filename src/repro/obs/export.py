"""Exporters: Chrome trace_event JSON, Prometheus text, plain JSON.

The Chrome format loads directly in Perfetto or ``chrome://tracing``.
One mapping, :func:`chrome_events`, renders all three trace views (the
whole ring in ``chrome_trace``, flight dumps, and the per-request view
of :mod:`repro.obs.reqtrace`); each view supplies only its lane layout.
Spans become complete (``"X"``) events, instants become ``"i"`` events,
and timestamps are converted from simulated cycles to microseconds at
the modelled 2.1 GHz core frequency (the raw cycle values ride along in
``args``). The Prometheus exposition (``prometheus_text``) renders a
machine's metrics — counters, gauges and cumulative histogram buckets —
in the standard text format.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..hw.cycles import CPU_FREQ_HZ
from .metrics import metrics_snapshot, parse_label_key
from .trace import INSTANT, SPAN, Tracer

#: microseconds per simulated cycle at the modelled core frequency
_US_PER_CYCLE = 1e6 / CPU_FREQ_HZ


def cycles_to_us(cycles: int) -> float:
    return cycles * _US_PER_CYCLE


# --------------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------------- #

def chrome_events(process: str, lanes: dict[int, str], records, *,
                  process_tid: int = 0, cpu_arg: bool = False) -> list[dict]:
    """The one TraceEvent → Chrome ``trace_event`` mapping.

    Every view lives in process 1 and differs only in its lane layout:
    ``process`` names the process (on thread ``process_tid``), ``lanes``
    maps each thread id to its label, and ``records`` yields
    ``(tid, TraceEvent)`` pairs in output order. Spans become complete
    (``"X"``) events and everything else an instant (``"i"``); the raw
    cycle values ride along in ``args``, as do the bound request trace
    ID and, for audits, the record's ``kind``. ``cpu_arg`` also records
    the executing CPU, for layouts whose lanes are not CPUs.
    """
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": process_tid,
        "args": {"name": process},
    }]
    for tid, label in lanes.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": label}})
    for tid, e in records:
        args = dict(e.args)
        args["cycles_begin"] = e.begin
        if e.trace is not None:            # bound request trace ID
            args["trace"] = e.trace
        if cpu_arg and e.cpu is not None:
            args["cpu"] = e.cpu
        record = {
            "name": e.name, "cat": e.cat or "trace", "pid": 1, "tid": tid,
            "ts": cycles_to_us(e.begin), "args": args,
        }
        if e.kind == SPAN:
            record["ph"] = "X"
            record["dur"] = cycles_to_us(e.duration)
            args["cycles_dur"] = e.duration
        else:
            record["ph"] = "i"
            record["s"] = "t"
            if e.kind != INSTANT:          # audit events keep their kind
                args["kind"] = e.kind
        events.append(record)
    return events


def chrome_trace(tracer: Tracer) -> dict:
    """Render the ring buffer as a Chrome/Perfetto ``trace_event`` dict.

    Events recorded while a logical CPU was executing (``TraceEvent.cpu``
    set) land on their own thread lane (``tid = cpu + 2``), so an SMP run
    renders one swim-lane per core; serial-section events stay on the
    base lane, ``tid = 1``.
    """
    cpus = sorted({e.cpu for e in tracer.events if e.cpu is not None})
    records = ((1 if e.cpu is None else e.cpu + 2, e) for e in tracer.events)
    return {
        "traceEvents": chrome_events(
            "erebor-sim", {cpu + 2: f"cpu{cpu}" for cpu in cpus}, records,
            process_tid=1),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated-cycles",
            "cpu_freq_hz": CPU_FREQ_HZ,
            "dropped_events": tracer.dropped,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> dict:
    """Write a Perfetto-loadable trace file; returns the dict written."""
    trace = chrome_trace(tracer)
    Path(path).write_text(json.dumps(trace))
    return trace


# --------------------------------------------------------------------------- #
# plain JSON
# --------------------------------------------------------------------------- #

def trace_json(tracer: Tracer) -> dict:
    """The ring buffer as a self-describing JSON-able dict."""
    return {
        "clock": "simulated-cycles",
        "capacity": tracer.events.capacity,
        "dropped": tracer.dropped,
        "events": [e.to_dict() for e in tracer.events],
    }


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #

def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _fmt_labels(key: str, extra: dict | None = None) -> str:
    labels = parse_label_key(key)
    if extra:
        labels.update(extra)
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def prometheus_text(clock, tracer: Tracer | None = None) -> str:
    """Render ``metrics_snapshot(clock)``, the snapshot an obs bundle
    carries, in the Prometheus text exposition format.

    Pass the live ``tracer`` to additionally expose its ring-buffer
    health — how many events the bounded ring has discarded — so
    scrapers can alarm on silent trace loss.
    """
    snap = metrics_snapshot(clock)
    lines: list[str] = []
    help_texts = getattr(clock.metrics, "_help", {})

    if tracer is not None:
        lines.append("# HELP erebor_obs_trace_dropped_events_total "
                     "Events discarded by the bounded trace ring")
        lines.append("# TYPE erebor_obs_trace_dropped_events_total counter")
        lines.append(f"erebor_obs_trace_dropped_events_total "
                     f"{tracer.dropped}")

    exemplars = snap.get("exemplars", {})

    for name, series in snap["counters"].items():
        if name in help_texts:
            lines.append(f"# HELP {name} {help_texts[name]}")
        lines.append(f"# TYPE {name} counter")
        for key, value in series.items():
            line = f"{name}{_fmt_labels(key)} {_fmt_value(value)}"
            exemplar = exemplars.get(name, {}).get(key)
            if exemplar:
                # OpenMetrics exemplar: name one offending request so the
                # series links back to its causal span tree (reqtrace)
                line += f' # {{trace_id="{_escape(exemplar)}"}} 1'
            lines.append(line)

    for name, series in sorted(snap["gauges"].items()):
        if name in help_texts:
            lines.append(f"# HELP {name} {help_texts[name]}")
        lines.append(f"# TYPE {name} gauge")
        for key, value in sorted(series.items()):
            lines.append(f"{name}{_fmt_labels(key)} {_fmt_value(value)}")

    for name, series in sorted(snap["histograms"].items()):
        if name in help_texts:
            lines.append(f"# HELP {name} {help_texts[name]}")
        lines.append(f"# TYPE {name} histogram")
        for key, hist in sorted(series.items()):
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["buckets"]):
                cumulative += count
                lines.append(f"{name}_bucket{_fmt_labels(key, {'le': bound})} "
                             f"{cumulative}")
            lines.append(f"{name}_bucket{_fmt_labels(key, {'le': '+Inf'})} "
                         f"{hist['count']}")
            lines.append(f"{name}_sum{_fmt_labels(key)} "
                         f"{_fmt_value(hist['sum'])}")
            lines.append(f"{name}_count{_fmt_labels(key)} {hist['count']}")

    return "\n".join(lines) + "\n"

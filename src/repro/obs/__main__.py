"""``python -m repro.obs`` — run a workload and export its observability.

Examples::

    python -m repro.obs --workload helloworld --export json
    python -m repro.obs --workload unicorn --export chrome -o trace.json
    python -m repro.obs --workload helloworld --export prometheus
    python -m repro.obs --workload helloworld --export collapsed
    python -m repro.obs flight --workload helloworld -o flight.json
    python -m repro.obs hostprof --workload helloworld -o hostprof.json
    python -m repro.obs diff bundle_a.json bundle_b.json -o report.json
    python -m repro.obs diff a.json b.json --gate
    python -m repro.obs --list

The ``json`` export is the full bundle (meta + trace + metrics + profile)
and is schema-checked before being written; ``chrome`` is a Perfetto /
``chrome://tracing`` loadable ``trace_event`` file; ``prometheus`` is the
text exposition of the metrics registry; ``collapsed`` is flamegraph
collapsed-stack lines (pipe into ``flamegraph.pl``).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.runner import SETTINGS
from .export import chrome_trace, prometheus_text
from .harness import export_bundle, run_observed
from .profile import collapsed_stacks, profile_report
from .schema import check_chrome_trace, check_export
from .trace import DEFAULT_CAPACITY

EXPORTS = ("json", "chrome", "prometheus", "collapsed", "report")

#: the formats ``hostprof`` mode can write (``report`` is the ranked table)
HOSTPROF_EXPORTS = ("json", "collapsed", "report")


def _workload_names() -> list[str]:
    import repro.apps  # noqa: F401  (populates the registry)
    from ..apps.base import REGISTRY
    return sorted(REGISTRY)


def _main_diff(argv: list[str]) -> int:
    """``python -m repro.obs diff A B`` — differential run comparator."""
    from .diff import diff_any, dumps_report, gate_report, render_report
    from .schema import check_diff_report

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Compare two obs bundles (or two {name: digest} "
                    "maps) and emit a deterministic divergence report "
                    "localizing deltas to plane -> span -> tenant.")
    parser.add_argument("a", help="first bundle / digest-map JSON file")
    parser.add_argument("b", help="second bundle / digest-map JSON file")
    parser.add_argument("--out", "-o", default=None,
                        help="write the report JSON here (default: stdout)")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero on any simulated divergence "
                             "(the perf-gate CI contract)")
    args = parser.parse_args(argv)

    with open(args.a) as fh:
        payload_a = json.load(fh)
    with open(args.b) as fh:
        payload_b = json.load(fh)
    report = diff_any(payload_a, payload_b, label_a=args.a, label_b=args.b)
    check_diff_report(report)                   # self-validate before emit
    text = dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    print(render_report(report), file=sys.stderr)
    if args.gate:
        verdict = gate_report(report)
        for failure in verdict["failures"]:
            print(f"gate: {failure}", file=sys.stderr)
        return 0 if verdict["ok"] else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # diff takes its own positionals; dispatch before the run parser
    if argv and argv[0] == "diff":
        return _main_diff(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run a workload under full observability and export "
                    "traces, metrics, and cycle profiles.")
    parser.add_argument("mode", nargs="?", default=None,
                        choices=("flight", "hostprof"),
                        help="'flight': run under the flight recorder and "
                             "emit its black-box dump(s); 'hostprof': run "
                             "under the host wall-clock profiler and emit "
                             "its attribution (--export json for the full "
                             "report, collapsed for flamegraph stacks, "
                             "report for the ranked table)")
    parser.add_argument("--workload", default="helloworld",
                        help="workload name (see --list)")
    parser.add_argument("--setting", default="erebor", choices=SETTINGS,
                        help="evaluation setting (default: erebor)")
    parser.add_argument("--export", default="json", choices=EXPORTS,
                        dest="export_format",
                        help="output format (default: json)")
    parser.add_argument("--out", "-o", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale factor (default: 0.25)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                        help="trace ring-buffer capacity (events)")
    parser.add_argument("--list", action="store_true",
                        help="list available workloads and exit")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(_workload_names()))
        return 0

    if args.mode == "hostprof" and args.export_format not in HOSTPROF_EXPORTS:
        parser.error(f"hostprof mode cannot export {args.export_format!r}; "
                     f"pick from {', '.join(HOSTPROF_EXPORTS)}")

    if args.capacity <= 0:
        parser.error(f"--capacity must be positive, got {args.capacity}")

    names = _workload_names()
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {', '.join(names)}")

    if args.mode == "hostprof":
        from .hostprof import profile_fleet
        from .schema import check_hostprof_report

        run, profiler = profile_fleet(
            lambda: run_observed(args.workload, args.setting,
                                 scale=args.scale, seed=args.seed,
                                 capacity=args.capacity))
        if args.export_format == "collapsed":
            text = profiler.collapsed() + "\n"
        elif args.export_format == "json":
            report = profiler.report()
            check_hostprof_report(report)       # self-validate before emit
            text = json.dumps(report, indent=2)
        else:  # report
            text = profiler.render_table() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"{args.workload}/{args.setting}: hostprof window "
                  f"{profiler.window_s:.3f}s, coverage "
                  f"{profiler.coverage() * 100:.1f}% -> {args.out}",
                  file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0

    run = run_observed(args.workload, args.setting, scale=args.scale,
                       seed=args.seed, capacity=args.capacity,
                       flight=args.mode == "flight")

    if args.mode == "flight":
        from .flight import flight_payload
        text = json.dumps(flight_payload(run.tracer), indent=2)
    elif args.export_format == "json":
        bundle = export_bundle(run)
        check_export(bundle)                    # self-validate before emit
        text = json.dumps(bundle, indent=2)
    elif args.export_format == "chrome":
        trace = chrome_trace(run.tracer)
        check_chrome_trace(trace)
        text = json.dumps(trace)
    elif args.export_format == "prometheus":
        text = prometheus_text(run.clock)
    elif args.export_format == "collapsed":
        text = "\n".join(collapsed_stacks(run.tracer)) + "\n"
    else:  # report
        text = profile_report(run.tracer) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        summary = (f"{args.workload}/{args.setting}: "
                   f"{run.clock.cycles:,} cycles, "
                   f"{len(run.tracer.events) if run.tracer.enabled else 0} "
                   f"trace events -> {args.out}")
        print(summary, file=sys.stderr)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.fleet`` — run a deterministic fleet and report it.

Examples::

    python -m repro.fleet --clients 4 --requests 8
    python -m repro.fleet --workload llama.cpp --pool 3 --export bundle
    python -m repro.fleet --clients 6 --requests 2 -o fleet.json
    python -m repro.fleet --clients 8 --cores 4             # SMP scheduling
    python -m repro.fleet --pool 1 --autoscale --pool-max 4 # demand-driven
    python -m repro.fleet --slo --flight-dump flight.json   # SLO + black box
    python -m repro.fleet --violate --flight-dump flight.json
    python -m repro.fleet --trace-request client-2           # causal tree
    python -m repro.fleet --trace-out trace.json --trace-digests d.json
    python -m repro.fleet --hostprof hostprof.json           # host time
    python -m repro.fleet --cert-dir certs/    # execution certificates

The default export is the :class:`~repro.fleet.loadgen.FleetReport`
JSON; ``--export bundle`` wraps the run in the full ``repro.obs`` export
(meta + trace + metrics + profile, schema-checked — the payload the CI
``fleet-smoke`` job validates), with the fleet report attached under
``meta.fleet``.

``--autoscale`` grows the pool from ``--pool`` slots up to
``--pool-max`` and never shrinks it below ``--pool``. ``--cert-dir``
issues one certificate per admitted session and writes the batch after
the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .loadgen import build_fleet

EXPORTS = ("report", "bundle")


def _write_flight(args, recorder) -> None:
    """Write the flight recorder's dump file (``--flight-dump PATH``)."""
    if not args.flight_dump:
        return
    if getattr(recorder, "dumps", None) is None:   # bundle without flight
        return
    from ..obs.flight import flight_payload
    with open(args.flight_dump, "w") as fh:
        json.dump(flight_payload(recorder), fh, indent=2)
        fh.write("\n")
    reasons = ",".join(d.reason for d in recorder.dumps)
    print(f"flight: {len(recorder.dumps)} dump(s) [{reasons}] "
          f"-> {args.flight_dump}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Drive N attested clients through a warm pool of "
                    "forked sandboxes; export the fleet report.")
    parser.add_argument("--workload", default="llama.cpp")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=2,
                        help="requests per client session")
    parser.add_argument("--pool", type=int, default=2,
                        help="warm pool size (concurrent sandboxes)")
    parser.add_argument("--cores", type=int, default=1,
                        help="simulated CPUs the scheduler interleaves "
                             "sessions across (deterministic per count)")
    parser.add_argument("--autoscale", action="store_true",
                        help="demand-driven pool grow/shrink")
    parser.add_argument("--pool-max", type=int, default=None,
                        help="autoscale ceiling (default: 2x --pool; the "
                             "floor is --pool)")
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--slo", action="store_true",
                        help="arm per-tenant latency SLO monitoring "
                             "(queue-wait p95 5M, service p95 20M, "
                             "end-to-end p99 60M cycles)")
    parser.add_argument("--anomaly", action="store_true",
                        help="arm per-tenant EWMA exit/EMC anomaly "
                             "detection (alerts arm §12 mitigations)")
    parser.add_argument("--flight-dump", default=None, metavar="PATH",
                        help="install the flight recorder and write its "
                             "black-box dump(s) to PATH after the run")
    parser.add_argument("--violate", action="store_true",
                        help="force a tenant-0 EMC-quota violation "
                             "(eviction) to exercise the trigger path")
    parser.add_argument("--trace-request", default=None, metavar="ID",
                        help="print one request's causal span tree "
                             "(session name, trace ID, or unique prefix); "
                             "arms the tracer")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the per-request Chrome-trace view "
                             "(one lane per request; with --trace-request, "
                             "just that request's lane)")
    parser.add_argument("--trace-digests", default=None, metavar="PATH",
                        help="write the trace-id -> span-tree-digest JSON "
                             "map (byte-identical across seeded reruns; "
                             "the CI reqtrace smoke job diffs two runs)")
    parser.add_argument("--cert-dir", default=None, metavar="DIR",
                        help="issue one execution certificate per admitted "
                             "session and write the batch (plus "
                             "published.json golden values) to DIR; verify "
                             "offline with `python -m repro.certs verify "
                             "--dir DIR`")
    parser.add_argument("--hostprof", default=None, metavar="PATH",
                        help="profile host wall-time by simulator "
                             "subsystem during the run; write the report "
                             "JSON to PATH (table goes to stderr)")
    parser.add_argument("--export", default="report", choices=EXPORTS,
                        dest="export_format",
                        help="'report' = fleet JSON; 'bundle' = full obs "
                             "export (schema-checked)")
    parser.add_argument("--out", "-o", default=None,
                        help="output file (default: stdout)")
    args = parser.parse_args(argv)

    for knob in ("clients", "requests", "pool", "tenants", "cores", "scale"):
        if getattr(args, knob) <= 0:
            parser.error(f"--{knob} must be positive")
    if args.pool_max is not None and args.pool_max < args.pool:
        parser.error("--pool-max must be at least --pool")

    pool_config = None
    if args.autoscale:
        from .pool import PoolConfig
        pool_config = PoolConfig(size=args.pool, autoscale=True,
                                 max_size=args.pool_max or 2 * args.pool)
    slo = None
    if args.slo:
        from .scheduler import SloConfig
        slo = SloConfig(queue_wait_p95=5_000_000, service_p95=20_000_000,
                        e2e_p99=60_000_000)
    admission = None
    if args.violate:
        from .admission import AdmissionConfig, TenantQuota
        admission = AdmissionConfig(
            queue_depth=args.clients,
            quotas={"tenant-0": TenantQuota(max_emc_per_request=1)})
    run_kwargs = dict(
        workload=args.workload, clients=args.clients,
        requests=args.requests, pool_size=args.pool, tenants=args.tenants,
        seed=args.seed, scale=args.scale, n_cpus=args.cores,
        pool_config=pool_config, admission=admission,
        slo=slo, anomaly=args.anomaly, flight=bool(args.flight_dump),
        certificates=args.cert_dir is not None)

    want_trace = any(flag is not None for flag in
                     (args.trace_request, args.trace_out, args.trace_digests))
    instrument = None
    if args.export_format == "bundle" or want_trace:
        from ..obs import install
        from ..obs.trace import DEFAULT_CAPACITY, REQUEST_TRACE_CAPACITY

        capacity = REQUEST_TRACE_CAPACITY if want_trace else DEFAULT_CAPACITY

        def instrument(machine) -> None:
            tracer, _registry = install(machine.clock, capacity=capacity,
                                        flight=bool(args.flight_dump))
            tracer.span("run:fleet", "run",
                        workload=args.workload).__enter__()

    profiler = contextlib.nullcontext()
    if args.hostprof:
        from ..obs.hostprof import HostProfiler
        profiler = HostProfiler()
    with profiler:
        fleet = build_fleet(instrument=instrument, **run_kwargs)
        fleet.scheduler.run(fleet.sessions)
        report = fleet.report()
        clock = fleet.machine.clock
        if instrument is not None:
            clock.tracer.finish()
    if args.hostprof:
        profiler.calibrate()
        with open(args.hostprof, "w") as fh:
            json.dump(profiler.report(), fh, indent=2)
            fh.write("\n")
        print(profiler.render_table(), file=sys.stderr)
        print(f"hostprof -> {args.hostprof}", file=sys.stderr)

    _write_flight(args, clock.tracer)

    if args.cert_dir is not None:
        from ..certs.issue import write_certificates
        write_certificates(fleet.certificates, args.cert_dir)
        print(f"certificates: {len(report.certs)} issued -> {args.cert_dir} "
              f"(verify: python -m repro.certs verify --dir {args.cert_dir})",
              file=sys.stderr)

    if args.export_format == "bundle":
        from ..obs.harness import ObservedRun, export_bundle
        from ..obs.schema import check_export
        run = ObservedRun(args.workload, "fleet", clock.tracer, None, clock,
                          fleet.machine)
        bundle = export_bundle(run)
        bundle["meta"]["fleet"] = report.to_dict()
        check_export(bundle)                    # self-validate before emit
        text = json.dumps(bundle, indent=2)
    else:
        text = report.to_json()

    trace_text = None
    if want_trace:
        from ..obs.reqtrace import RequestTraceIndex
        tracer = clock.tracer
        if tracer.dropped:
            print(f"warning: trace ring dropped {tracer.dropped} events; "
                  "trees may read incomplete", file=sys.stderr)
        index = RequestTraceIndex.from_tracer(tracer, names=report.traces)
        if args.trace_digests:
            with open(args.trace_digests, "w") as fh:
                json.dump(index.digests(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"trace digests ({len(index.ids())} requests) "
                  f"-> {args.trace_digests}", file=sys.stderr)
        if args.trace_out:
            index.write_chrome_trace(args.trace_out, args.trace_request)
            lanes = 1 if args.trace_request else len(index.ids())
            print(f"chrome trace ({lanes} lane(s)) -> {args.trace_out}",
                  file=sys.stderr)
        if args.trace_request:
            try:
                trace_text = index.render_text(args.trace_request)
            except KeyError as exc:
                parser.error(str(exc.args[0]))

    summary = (f"fleet/{args.workload}: {report.requests_served} "
               f"requests on {report.n_cpus} core(s), "
               f"{report.counts.get('admit', 0)} admitted, "
               f"fork speedup {report.fork_speedup():.1f}x, "
               f"digest {report.digest()[:16]}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(summary + f" -> {args.out}", file=sys.stderr)
    elif trace_text is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        # --trace-request without --out: the span tree IS the requested
        # output; the report summary still lands on stderr
        print(summary, file=sys.stderr)
    if trace_text is not None:
        sys.stdout.write(trace_text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

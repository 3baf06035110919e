"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro microbench [--quick] [--jobs N] [--no-record]
    python -m repro calibrate [--smoke] [--jobs N] [--seed N] [--resource NAME]
    python -m repro nfs [--threads 1,2,4,8,16] [--ops 20] [--jobs N]
    python -m repro rubis [--scheduler dwcs|radwcs|both] [--duration 20] [--jobs N]
    python -m repro failures [--scenario daemon-crash|partition|both] [--seed N]
    python -m repro diagnose [--smoke] [--seed N]
    python -m repro federation [--nodes N] [--zones Z] [--smoke]
    python -m repro overhead [--smoke] [--threads N]
    python -m repro trace [--out trace.json] [--smoke]
    python -m repro profile SCENARIO [--smoke] [--top N] [--trace PATH] [--json PATH]
    python -m repro serve [SCENARIO] [--smoke] [--port N] [--duration S]

``--jobs N`` fans independent sweep points out over N worker processes
(``--jobs 0`` = one per CPU).  Results are identical to serial runs —
see docs/performance.md.

Each command prints the same paper-vs-measured tables the benchmark
harness produces, without pytest.
"""

import argparse
import sys

from repro.experiments.common import format_table


def _cmd_list(_args):
    print(__doc__.strip())
    print()
    rows = [
        ("microbench", "§3.1: linpack, iperf 1G/100M, overhead range"),
        ("calibrate", "resource-geometry sweeps: infer each modeled capacity from its knee"),
        ("nfs", "Figures 4 & 5: virtual storage service bottleneck"),
        ("rubis", "Figures 6 & 7: DWCS vs resource-aware DWCS"),
        ("failures", "§3.2 failure detection: scripted outages + stale_nodes"),
        ("diagnose", "online SLO diagnosis: CPU hog -> alert -> blame -> drill-down"),
        ("federation", "zone GPAs: root ingress/CPU vs node count, flat vs federated"),
        ("overhead", "per-node CPU attribution: monitoring share vs sampling rate"),
        ("trace", "Chrome trace-event JSON export (Perfetto) of one NFS run"),
        ("profile", "self-profile the reproduction: cProfile hotspots + events/s"),
        ("serve", "live service mode: streaming dashboard + JSON control socket"),
    ]
    print(format_table(("command", "reproduces"), rows))
    return 0


def _cmd_microbench(args):
    from repro.experiments import (
        overhead_range_experiment,
        run_headline_experiments,
    )

    jobs = _jobs(args)
    duration = 0.15 if args.quick else 0.3
    headline = run_headline_experiments(
        linpack_duration=0.5 if args.quick else 1.5,
        iperf_duration=duration, jobs=jobs,
    )
    rows = [entry.row() for entry in headline]
    print(format_table(
        ("benchmark", "baseline", "monitored", "overhead %"),
        rows,
        title="§3.1 microbenchmarks (paper: linpack ~0%, 1G ~13%, 100M ~3%)",
    ))
    print()
    sweep = overhead_range_experiment(
        duration=0.1 if args.quick else 0.25, jobs=jobs
    )
    print(format_table(
        ("configuration", "Mbps", "overhead %"),
        [(entry.label, entry.monitored, entry.overhead_pct) for entry in sweep],
        title="overhead vs configuration (paper: <1% ... >10%)",
    ))
    if args.quick:
        print("\n--quick run: BENCH_microbench.json not updated")
    elif not args.no_record:
        from repro.experiments.common import record_trajectory
        from repro.experiments.microbench import (
            BENCH_PATH,
            BENCH_SCHEMA,
            microbench_payload,
        )

        record_trajectory(
            BENCH_PATH, BENCH_SCHEMA, microbench_payload(headline, sweep)
        )
        print("\nappended trajectory entry to {}".format(BENCH_PATH))
    return 0


def _cmd_calibrate(args):
    from repro.experiments.calibrate import (
        BENCH_PATH,
        BENCH_SCHEMA,
        RESOURCES,
        format_report,
        run_calibration,
    )
    from repro.experiments.common import record_trajectory

    report = run_calibration(
        seed=args.seed, smoke=args.smoke, jobs=_jobs(args),
        resources=args.resource or None,
    )
    print(format_report(report))
    full_suite = not args.resource or set(args.resource) == set(RESOURCES)
    if args.no_record:
        pass
    elif not full_suite:
        print("\npartial resource selection: BENCH_calibration.json not updated")
    else:
        record_trajectory(BENCH_PATH, BENCH_SCHEMA, report.payload())
        print("\nappended trajectory entry to {}".format(BENCH_PATH))
    return 0 if report.passes == report.total else 1


def _cmd_nfs(args):
    from repro.experiments import NfsExperimentConfig, run_thread_sweep

    threads = tuple(int(part) for part in args.threads.split(","))
    config = NfsExperimentConfig(
        thread_counts=threads, ops_per_thread=args.ops
    )
    rows = []
    for result in run_thread_sweep(config, jobs=_jobs(args)):
        rows.append((
            result.threads_per_client, result.proxy_user_ms,
            result.proxy_kernel_ms, result.backend_kernel_ms,
            result.backend_to_proxy_ratio, result.client_mean_latency_ms,
        ))
    print(format_table(
        ("threads/client", "proxy user ms", "proxy kernel ms",
         "backend kernel ms", "ratio", "client ms"),
        rows,
        title="Figures 4 & 5: per-interaction residency vs iozone threads",
    ))
    print("\npaper shape: proxy user flat; proxy kernel grows; backend "
          ">> proxy (order of magnitude at load); RTT < 0.3 ms")
    return 0


def _cmd_rubis(args):
    from repro.experiments import RubisExperimentConfig

    config = RubisExperimentConfig(
        duration=args.duration, load_at=args.duration / 2.0
    )
    schedulers = (
        ("dwcs", "radwcs") if args.scheduler == "both" else (args.scheduler,)
    )
    from repro.experiments import run_points
    from repro.experiments.rubis_qos import _comparison_point

    measured = run_points(
        _comparison_point,
        [(scheduler, config, True) for scheduler in schedulers],
        jobs=_jobs(args),
    )
    results = dict(zip(schedulers, measured))
    rows = []
    for scheduler, result in results.items():
        for name in ("bidding", "comment"):
            rows.append((
                scheduler, name, result.pre_throughput[name],
                result.post_throughput[name], result.dropped[name],
            ))
    print(format_table(
        ("scheduler", "class", "pre resp/s", "post resp/s", "dropped"),
        rows,
        title="Figures 6 & 7: throughput around the mid-run load event",
    ))
    if len(results) == 2:
        dwcs, radwcs = results["dwcs"], results["radwcs"]
        gain = 100.0 * (radwcs.post_total - dwcs.post_total) / dwcs.post_total
        print("\npost-load total gain from SysProf-guided routing: "
              "+{:.1f}% (paper: >14%)".format(gain))
    return 0


def _cmd_failures(args):
    from dataclasses import replace

    from repro.experiments import FailureExperimentConfig, run_failure_experiment
    from repro.experiments.failures import SCENARIOS

    base = FailureExperimentConfig(
        seed=args.seed,
        fault_start=args.fault_start,
        fault_duration=args.fault_duration,
    )
    scenarios = SCENARIOS if args.scenario == "both" else (args.scenario,)
    rows = []
    for scenario in scenarios:
        result = run_failure_experiment(replace(base, scenario=scenario))
        rows.append((
            scenario, result.fault_at,
            result.detection_latency if result.detected else float("nan"),
            result.recovery_latency if result.recovered else float("nan"),
            result.send_errors, result.connect_attempts, result.reconnects,
            result.backoff_skips,
        ))
    print(format_table(
        ("scenario", "fault at s", "detect s", "recover s",
         "send errs", "dials", "reconnects", "backoff skips"),
        rows,
        title="failure injection: outage detection via gpa.stale_nodes()",
    ))
    print("\nsame seed + same schedule => identical traces; detection "
          "lag ~ stale threshold + probe grid")
    return 0


def _cmd_diagnose(args):
    from dataclasses import replace

    from repro.experiments import run_diagnose_experiment
    from repro.experiments.diagnose import DiagnoseConfig, smoke_config

    config = smoke_config() if args.smoke else DiagnoseConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = run_diagnose_experiment(config)
    print(result.dashboard or "(no mid-incident dashboard captured)")
    print()
    rows = [
        ("hog onset", "{:.2f}s on {}".format(result.hog_at, config.hog_node)),
        ("detected", "yes, +{:.2f}s".format(result.detection_latency)
         if result.detected else "NO"),
        ("blame", "{}/{} ({})".format(
            result.blamed_node or "-", result.blamed_stage or "-",
            "correct" if result.blame_correct else "WRONG")),
        ("drill-down", "eviction {:.2f}s -> {:.2f}s{}".format(
            result.interval_before, result.interval_during,
            ", restored" if result.drill_restored else ", NOT restored")
         if result.drilled else "never raised"),
        ("resolved", "yes, +{:.2f}s after hog end".format(
            result.resolution_latency) if result.resolved else "NO"),
        ("monitoring share", "{:.2%} during drill / {:.2%} overall".format(
            result.monitoring_share_during, result.monitoring_share_overall)),
        ("sketch rows merged", result.sketch_rows),
        ("trace hash", result.trace_hash[:16]),
    ]
    print(format_table(("stage", "outcome"), rows,
                       title="online diagnosis closed loop"))
    ok = (result.detected and result.blame_correct and result.drilled
          and result.drill_restored and result.resolved)
    print("\nclosed loop {}: detect -> blame -> drill -> restore".format(
        "complete" if ok else "INCOMPLETE"))
    return 0 if ok else 1


def _observe_config(args):
    from dataclasses import replace

    from repro.experiments.observe import ObservabilityConfig, smoke_config

    config = smoke_config() if args.smoke else ObservabilityConfig()
    threads = getattr(args, "threads", None)
    if threads is not None:
        config = replace(config, threads_per_client=threads)
    return config


def _cmd_overhead(args):
    from repro.experiments import run_overhead_experiment
    from repro.experiments.observe import breakdown_rows, monitoring_seconds
    from repro.observability.ledger import CATEGORIES

    points = run_overhead_experiment(_observe_config(args))
    headers = ["node"]
    headers.extend("{} ms".format(c) for c in CATEGORIES if c != "idle")
    headers.append("monitoring %")
    for point in points:
        print(format_table(
            tuple(headers),
            breakdown_rows(point),
            title="{} (eviction {:.2f}s, syscall LPA {})".format(
                point.label, point.eviction_interval,
                "on" if point.syscall_stats else "off",
            ),
        ))
        print()
    if len(points) >= 2:
        low, high = points[0], points[-1]
        nodes = sorted(set(low.breakdown) & set(high.breakdown))
        grew = sum(
            1 for node in nodes
            if monitoring_seconds(high, node) > monitoring_seconds(low, node)
        )
        print("monitoring CPU grew with the sampling rate on {}/{} nodes "
              "(paper: perturbation scales with enabled probes)".format(
                  grew, len(nodes)))
    return 0


def _cmd_trace(args):
    import json

    from repro.experiments import run_trace_experiment
    from repro.observability import validate_chrome_trace

    doc, ledger = run_trace_experiment(_observe_config(args), path=args.out)
    count = validate_chrome_trace(doc)
    if args.out:
        print("wrote {} ({} events, {} nodes) — load in ui.perfetto.dev".format(
            args.out, count, len(ledger.nodes())))
    else:
        print(json.dumps(doc))
    return 0


def _cmd_profile(args):
    import json

    from repro.profiling import format_report, run_profile, write_chrome_trace

    report = run_profile(args.scenario, smoke=args.smoke, top=args.top)
    print(format_report(report))
    if args.trace:
        count = write_chrome_trace(report, args.trace)
        print("wrote {} ({} slices) — load in ui.perfetto.dev".format(
            args.trace, count))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print("wrote {}".format(args.json))
    return 0


def _cmd_serve(args):
    from repro.service import ServiceServer, Supervisor, stream

    if args.smoke:
        from repro.service.smoke import run_smoke

        return run_smoke(scenario=args.scenario)
    supervisor = Supervisor(args.scenario, slice_width=args.slice)
    server = None
    if args.port is not None:
        server = ServiceServer(supervisor, port=args.port).start()
        print("control socket listening on {}".format(server.address))
    try:
        stream(
            supervisor, refresh=args.refresh, duration=args.duration,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.stop()
        supervisor.shutdown()
    print("served {} for {:.2f} simulated seconds ({} slices, "
          "{} controls applied)".format(
              supervisor.scenario.name, supervisor.now, supervisor.slices,
              supervisor.controls_applied))
    return 0


def _cmd_federation(args):
    from repro.experiments.common import record_trajectory
    from repro.experiments.federation import (
        BENCH_PATH,
        BENCH_SCHEMA,
        FederationConfig,
        partition_payload,
        run_federation_sweep,
        run_partition_sweep,
        smoke_config,
        sweep_payload,
    )

    if args.partition:
        base = smoke_config(nodes=args.nodes or 16, zones=args.zones or 2)
        if not args.smoke:
            base.nodes = args.nodes or 64
            base.zones = args.zones or 0
        sweep = run_partition_sweep(base_config=base)
        print(format_table(
            ("scenario", "zone", "detect s", "return s", "gap s",
             "stale max/bound", "rows lost", "rep/esc/ret"),
            [point.row() for point in sweep["points"]],
            title="federation partition tolerance: reparent + retention",
        ))
        healthy = True
        for point in sweep["points"]:
            verdict = []
            if not point.staleness_bounded:
                verdict.append("member staleness exceeds the failover bound")
            if point.rows_lost:
                verdict.append("{} condensed rows lost".format(point.rows_lost))
            if verdict:
                healthy = False
                print("{}: FAIL — {}".format(point.scenario, "; ".join(verdict)))
            else:
                print("{}: staleness bounded by failover latency "
                      "({:.2f}s <= {:.2f}s), zero rows lost".format(
                          point.scenario, point.member_staleness_max_s,
                          point.member_staleness_bound_s))
        if not args.no_record:
            record_trajectory(
                BENCH_PATH, BENCH_SCHEMA,
                {"partition": partition_payload(sweep)},
            )
            print("appended trajectory entry to {}".format(BENCH_PATH))
        return 0 if healthy else 1

    if args.smoke:
        base = smoke_config(nodes=args.nodes or 16, zones=args.zones or 2)
        counts = (base.nodes,)
    else:
        base = FederationConfig(zones=args.zones)
        counts = (
            (args.nodes,) if args.nodes else (16, 64, 256)
        )
    sweep = run_federation_sweep(node_counts=counts, base_config=base)
    print(format_table(
        ("nodes", "mode", "zones", "root B/s", "root CPU share", "stale p95"),
        [point.row() for point in sweep["points"]],
        title="federation scaling: root load vs cluster size",
    ))
    fed = [p for p in sweep["points"] if p.federated]
    flat = [p for p in sweep["points"] if not p.federated]
    if len(fed) >= 2:
        node_growth = fed[-1].nodes / fed[0].nodes
        byte_growth = fed[-1].root_bytes_per_s / max(fed[0].root_bytes_per_s, 1e-9)
        print("\nfederated root ingress grew {:.1f}x across a {:.0f}x node "
              "increase ({})".format(
                  byte_growth, node_growth,
                  "sublinear" if byte_growth < node_growth else "NOT sublinear"))
    if flat and fed:
        print("at {} nodes, federation cuts root ingress {:.0f}x".format(
            flat[-1].nodes,
            flat[-1].root_bytes_per_s / max(fed[-1].root_bytes_per_s, 1e-9)))
    if not args.no_record:
        record_trajectory(BENCH_PATH, BENCH_SCHEMA, sweep_payload(sweep))
        print("appended trajectory entry to {}".format(BENCH_PATH))
    return 0


def _jobs(args):
    """Translate the --jobs flag: 1 = serial, 0 = one worker per CPU."""
    jobs = getattr(args, "jobs", 1)
    return None if jobs == 0 else jobs


def _add_jobs_flag(subparser):
    subparser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent sweep points "
             "(default 1 = serial, 0 = one per CPU)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="SysProf reproduction experiment runner"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    micro = commands.add_parser("microbench", help="§3.1 microbenchmarks")
    micro.add_argument("--quick", action="store_true",
                       help="shorter runs (less precise)")
    micro.add_argument("--no-record", action="store_true",
                       help="skip appending to BENCH_microbench.json")
    _add_jobs_flag(micro)

    calibrate = commands.add_parser(
        "calibrate",
        help="sweep offered load against each modeled resource and check "
             "the knee-inferred geometry against the configured values",
    )
    calibrate.add_argument("--smoke", action="store_true",
                           help="coarser grids and shorter runs (CI-sized)")
    calibrate.add_argument("--seed", type=int, default=23)
    calibrate.add_argument("--resource", action="append", metavar="NAME",
                           help="restrict to one resource (repeatable); "
                                "partial runs skip the trajectory append")
    calibrate.add_argument("--no-record", action="store_true",
                           help="skip appending to BENCH_calibration.json")
    _add_jobs_flag(calibrate)

    nfs = commands.add_parser("nfs", help="Figures 4 & 5 (storage service)")
    nfs.add_argument("--threads", default="1,2,4,8,16",
                     help="comma-separated iozone threads per client")
    nfs.add_argument("--ops", type=int, default=20,
                     help="write ops per thread per pass")
    _add_jobs_flag(nfs)

    rubis = commands.add_parser("rubis", help="Figures 6 & 7 (RUBiS QoS)")
    rubis.add_argument("--scheduler", choices=("dwcs", "radwcs", "both"),
                       default="both")
    rubis.add_argument("--duration", type=float, default=20.0)
    _add_jobs_flag(rubis)

    failures = commands.add_parser(
        "failures", help="failure injection + detection latency"
    )
    failures.add_argument("--scenario",
                          choices=("daemon-crash", "partition", "both"),
                          default="both")
    failures.add_argument("--seed", type=int, default=9)
    failures.add_argument("--fault-start", type=float, default=6.0)
    failures.add_argument("--fault-duration", type=float, default=5.0)

    diagnose = commands.add_parser(
        "diagnose", help="online SLO diagnosis of an injected CPU hog"
    )
    diagnose.add_argument("--smoke", action="store_true",
                          help="tiny workload (CI-sized run)")
    diagnose.add_argument("--seed", type=int, default=None)

    overhead = commands.add_parser(
        "overhead", help="per-node CPU attribution breakdown"
    )
    overhead.add_argument("--smoke", action="store_true",
                          help="tiny workload (CI-sized run)")
    overhead.add_argument("--threads", type=int, default=None,
                          help="iozone threads per client")

    trace = commands.add_parser(
        "trace", help="export a Chrome trace-event JSON (Perfetto)"
    )
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="output path (default trace.json)")
    trace.add_argument("--smoke", action="store_true",
                       help="tiny workload (CI-sized run)")

    federation = commands.add_parser(
        "federation", help="federated aggregation tree: root load vs scale"
    )
    federation.add_argument("--nodes", type=int, default=None, metavar="N",
                            help="monitored node count (default: 16,64,256 sweep)")
    federation.add_argument("--zones", type=int, default=None, metavar="Z",
                            help="zone count (default: ~sqrt(nodes))")
    federation.add_argument("--smoke", action="store_true",
                            help="tiny 16-node/2-zone run (CI-sized)")
    federation.add_argument("--partition", action="store_true",
                            help="partition-tolerance sweep: cut a zone off "
                                 "from its parent tier and measure reparent "
                                 "latency, coverage gap, and rows lost")
    federation.add_argument("--no-record", action="store_true",
                            help="skip appending to BENCH_federation.json")

    from repro.profiling import SCENARIOS

    profile = commands.add_parser(
        "profile", help="self-profile the reproduction under cProfile"
    )
    profile.add_argument("scenario", choices=sorted(SCENARIOS),
                         help="workload to profile: microbench, sketch, or "
                              "any registered service scenario")
    profile.add_argument("--smoke", action="store_true",
                         help="tiny workload (CI-sized run)")
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="hotspot table rows (default 15)")
    profile.add_argument("--trace", default=None, metavar="PATH",
                         help="also write a Chrome-trace JSON of the hotspots")
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full report as JSON")

    from repro.service.scenarios import SCENARIOS as SERVE_SCENARIOS

    serve = commands.add_parser(
        "serve", help="live service mode: supervised scenario + dashboard"
    )
    serve.add_argument("scenario", nargs="?", default="nfs",
                       choices=sorted(SERVE_SCENARIOS),
                       help="scenario to supervise (default nfs)")
    serve.add_argument("--smoke", action="store_true",
                       help="scripted self-check over the live API (CI-sized)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="serve the JSON control socket on 127.0.0.1:N "
                            "(0 = pick a free port; default: no socket)")
    serve.add_argument("--duration", type=float, default=None, metavar="S",
                       help="stop after S simulated seconds (default: run "
                            "until interrupted)")
    serve.add_argument("--refresh", type=float, default=1.0, metavar="S",
                       help="dashboard refresh period in simulated seconds")
    serve.add_argument("--slice", type=float, default=0.1, metavar="S",
                       help="simulated seconds per supervisor slice")
    serve.add_argument("--no-clear", action="store_true",
                       help="append frames instead of clearing the screen")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "microbench": _cmd_microbench,
        "calibrate": _cmd_calibrate,
        "nfs": _cmd_nfs,
        "rubis": _cmd_rubis,
        "failures": _cmd_failures,
        "diagnose": _cmd_diagnose,
        "federation": _cmd_federation,
        "overhead": _cmd_overhead,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

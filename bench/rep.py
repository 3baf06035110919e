"""One benchmark rep in a fresh process.

    PYTHONPATH=src:. python -m bench.rep --workload nfs [--seed S] [--smoke] [--trace]

Sets the workload up, runs it to its horizon, checks what it produced,
and prints one JSON report as the last line of stdout.  Nothing from
``repro`` is imported before the set-up clock starts, so ``setup_s``
includes the import.  Host times are reported raw and rescaled to a
nominal host by the reference loop (``bench/reference.py``).  With
``--trace`` the whole rep -- import, build and run -- executes under
cProfile instead, and the report adds host self time per
``src/repro/<layer>/`` package and selected call counts.

The program only ever sees a built scenario: no code under ``src/``
knows it is being measured.
"""

import argparse
import cProfile
import gc
import json
import pstats
import resource
import sys
import time
import traceback
from fnmatch import fnmatchcase

from bench.layers import call_counts, layer_self_times
from bench.reference import Reference

#: Slices a scenario workload's run is cut into, and the reference steps
#: run after each slice (about a tenth of the rep's time).
SLICES = 30
REFERENCE_STEPS = 10_000

#: Profile call counts reported by a traced rep: metric -> functions.
CALLS = {
    "sim.process_resumes": ["repro.sim.process:Process._advance"],
    "sim.timeouts": ["repro.sim.engine:Timeout.__init__"],
    # CpuSet.submit forwards every charge to Cpu.submit.
    "ossim.cpu_submits": ["repro.ossim.cpu:Cpu.submit"],
    "netsim.packets": [
        "repro.netsim.link:Link.transmit",
        "repro.netsim.link:Link.transmit_blocking",
    ],
    "observability.sketch_updates": [
        "repro.observability.sketches:QuantileSketch.add",
        "repro.observability.sketches:QuantileSketch.update_many",
    ],
    "observability.rule_evals": [
        "repro.observability.diagnosis:DiagnosisEngine.evaluate",
    ],
    "service.requests": ["repro.service.supervisor:Supervisor.handle"],
}


def _total(metrics, *patterns):
    """Sum of every registry value whose name matches one of ``patterns``."""
    return sum(
        value for name, (_kind, value) in metrics.items()
        if any(fnmatchcase(name, pattern) for pattern in patterns)
    )


def _counts(metrics):
    """Per-layer work counts from the metrics registry snapshot."""
    hits = _total(metrics, "sysprof.sim.pool_hits")
    lookups = hits + _total(metrics, "sysprof.sim.pool_misses")
    frames = _total(
        metrics, "sysprof.gpa.*.frames_received", "sysprof.zone.*.frames_received"
    )
    records = _total(
        metrics, "sysprof.gpa.*.records_received", "sysprof.zone.*.records_received"
    )
    return {
        "sim.events": _total(metrics, "sysprof.sim.events_scheduled"),
        "sim.pool_hit_ratio": hits / lookups if lookups else 0.0,
        "core.kprof_fired": _total(metrics, "sysprof.kprof.*.fired.*"),
        "core.frames_published": _total(
            metrics, "sysprof.daemon.*.frames_published",
            "sysprof.zone.*.frames_published",
        ),
        "core.frames_decoded": frames,
        "core.records_ingested": records,
        "core.records_per_frame": records / frames if frames else 0.0,
        "observability.recorder_samples": _total(metrics, "sysprof.recorder.samples"),
        "service.slices": _total(metrics, "sysprof.service.slices"),
    }


def _only(cls):
    """The one live instance of ``cls`` (the scenario keeps no handle)."""
    found = [obj for obj in gc.get_objects() if isinstance(obj, cls)]
    if len(found) != 1:
        raise RuntimeError("expected one {}, found {}".format(cls.__name__, len(found)))
    return found[0]


class Workload:
    """A registered scenario built with ``build_scenario`` and run to a
    horizon.

    The run is cut into :data:`SLICES` ``cluster.run(until=...)`` calls,
    which replay the identical event stream (the scenarios' determinism
    contract), so a chunk of the reference loop can follow each slice.
    """

    scenario_name = None
    build = {}
    horizon = None
    smoke_horizon = None

    def __init__(self, seed):
        from repro.service import build_scenario

        overrides = dict(self.build)
        if seed is not None:
            overrides["seed"] = seed
        self.scenario = build_scenario(self.scenario_name, **overrides)

    def run(self, horizon, reference=None):
        """Advance to ``horizon``; returns the host seconds the simulation
        took, not counting the reference chunks."""
        cluster = self.scenario.cluster
        elapsed = 0.0
        for index in range(1, SLICES + 1):
            started = time.perf_counter()
            cluster.run(until=horizon * index / SLICES)
            elapsed += time.perf_counter() - started
            if reference is not None:
                reference.run(REFERENCE_STEPS)
        return elapsed

    def operations(self, metrics):
        """``(attempted, failed)`` user-visible operations."""
        raise NotImplementedError

    def digest_records(self):
        return self.scenario.sysprof.gpa.query_interactions()

    def check(self, metrics):
        """Problems with the outputs, as strings; empty when correct."""
        problems = []
        if not self.digest_records():
            problems.append("the GPA holds no records")
        decode_errors = _total(
            metrics, "sysprof.gpa.*.decode_errors", "sysprof.zone.*.decode_errors"
        )
        if decode_errors:
            problems.append("{} frames failed to decode".format(decode_errors))
        return problems

    def extra(self):
        """End-to-end metrics only this workload has."""
        return {}

    def monitoring_cpu_share(self):
        ledger = self.scenario.ledger
        nodes = self.scenario.sysprof.monitors
        busy = sum(ledger.busy_total(node) for node in nodes)
        return sum(ledger.monitoring_time(node) for node in nodes) / busy

    def close(self):
        self.scenario.close()


class Nfs(Workload):
    scenario_name = "nfs"
    horizon = 3.0
    smoke_horizon = 0.6

    def operations(self, metrics):
        from repro.apps.common.proxy import ForwardingProxy

        proxy = _only(ForwardingProxy)
        return proxy.forwarded, proxy.dropped_replies


class Rubis(Workload):
    scenario_name = "rubis"
    horizon = 5.0
    smoke_horizon = 1.0

    def operations(self, metrics):
        from repro.apps.scheduling import RequestDispatcher

        stats = _only(RequestDispatcher).stats()
        return stats["dispatched"], stats["dropped"]


class Federation(Workload):
    scenario_name = "federation"
    build = {"zones": 4, "nodes_per_zone": 8, "samples_per_window": 256}
    horizon = 30.0
    smoke_horizon = 6.0

    def operations(self, metrics):
        published = _total(
            metrics, "sysprof.daemon.*.frames_published",
            "sysprof.zone.*.frames_published",
        )
        errors = _total(
            metrics, "sysprof.daemon.*.send_errors", "sysprof.zone.*.send_errors",
            "sysprof.gpa.*.decode_errors", "sysprof.zone.*.decode_errors",
        )
        return published, errors

    def digest_records(self):
        """Root class summaries, then every stored sketch window."""
        gpa = self.scenario.sysprof.gpa
        rows = list(gpa.class_summaries)
        for (node, request_class, metric), windows in sorted(gpa.sketches.series.items()):
            for end, sketch in windows:
                rows.append([
                    node, request_class, metric, end, sketch.count,
                    sketch.sum_value, sketch.quantile(0.5), sketch.quantile(0.99),
                ])
        return rows


class Incident(Nfs):
    """The nfs model under the supervisor: a CPU hog on a backend, and a
    closed loop of read-only control-plane queries after every slice."""

    horizon = 4.5
    smoke_horizon = 1.5
    slice_width = 0.1
    inject_after = 5  # slices, i.e. at 0.5 s
    hog_node = "backend1"
    hog_start = 0.75
    hog_duration = 2.0

    def __init__(self, seed):
        from repro.service import Supervisor

        super().__init__(seed)
        self.supervisor = Supervisor(self.scenario, slice_width=self.slice_width)
        self.sub = self.supervisor.subscribe(["alert", "anomaly"])
        self.queries = [
            ("status", {}),
            ("metrics", {"pattern": "sysprof.node.*"}),
            ("sketch", {"class": "nfs-write", "lookback": 1.0}),
            ("ledger", {}),
            ("alerts", {}),
            ("staleness", {}),
            ("dashboard", {}),
            ("poll", {"sub": self.sub}),
        ]
        self.latencies = []
        self.requests = 0
        self.refused = 0
        self.events = []

    def _request(self, op, params):
        self.requests += 1
        response = self.supervisor.handle({"op": op, "params": params})
        if not response["ok"]:
            self.refused += 1
        elif op == "poll":
            self.events.extend(response["result"]["events"])

    def run(self, horizon, reference=None):
        """Pump slice by slice; returns the host seconds spent pumping."""
        supervisor = self.supervisor
        pumped = 0.0
        for index in range(round(horizon / self.slice_width)):
            if index == self.inject_after:
                self._request("inject_fault", {"events": [{
                    "at": self.hog_start - supervisor.now, "kind": "cpu_hog",
                    "target": self.hog_node,
                    "params": {"duration": self.hog_duration, "utilization": 0.95},
                }]})
            started = time.perf_counter()
            supervisor.pump()
            pumped += time.perf_counter() - started
            for op, params in self.queries:
                started = time.perf_counter()
                self._request(op, params)
                self.latencies.append(time.perf_counter() - started)
            if reference is not None:
                reference.run(REFERENCE_STEPS)
        return pumped

    def operations(self, metrics):
        forwarded, dropped = super().operations(metrics)
        return forwarded + self.requests, dropped + self.refused

    def _fires(self, kind, source):
        return [
            event for event in self.events
            if event["event"] == kind and event["data"]["state"] == "fire"
            and event["data"]["alert"]["source"] == source
        ]

    def digest_records(self):
        """The GPA's interactions plus the alert event stream."""
        records = list(super().digest_records())
        records.extend(
            [event["event"], event["seq"], event["at"], event["data"]["state"],
             event["data"]["alert"]["rule"]]
            for event in self.events
        )
        return records

    def check(self, metrics):
        problems = super().check(metrics)
        anomaly = self._fires("anomaly", "anomaly")
        rule = self._fires("alert", "rule")
        if not anomaly or not rule:
            problems.append("anomaly fired {}x, rule fired {}x; both must fire".format(
                len(anomaly), len(rule)))
            return problems
        if not self.hog_start <= anomaly[0]["at"] < rule[0]["at"]:
            problems.append("anomaly at {} must follow the hog ({}) and precede "
                            "the rule ({})".format(anomaly[0]["at"], self.hog_start,
                                                   rule[0]["at"]))
        for event in (anomaly[0], rule[0]):
            blame = event["data"]["alert"].get("blame") or {}
            if blame.get("node") != self.hog_node:
                problems.append("{} blames {!r}, not {}".format(
                    event["data"]["alert"]["rule"], blame.get("node"), self.hog_node))
        return problems

    def extra(self):
        ms = sorted(latency * 1e3 for latency in self.latencies)
        anomaly = self._fires("anomaly", "anomaly")
        rule = self._fires("alert", "rule")
        return {
            "query_p50_ms": ms[int(0.50 * (len(ms) - 1))],
            "query_p95_ms": ms[int(0.95 * (len(ms) - 1))],
            "detect_anomaly_s": anomaly[0]["at"] - self.hog_start if anomaly else None,
            "detect_slo_s": rule[0]["at"] - self.hog_start if rule else None,
        }

    def close(self):
        self.supervisor.shutdown()


WORKLOADS = {
    "nfs": Nfs,
    "rubis": Rubis,
    "federation": Federation,
    "incident": Incident,
}


def run_rep(name, seed=None, smoke=False, trace=False):
    """Set up, run and check one rep; returns its report dict.

    An untraced rep also runs the reference loop once before set-up and
    after every slice, and reports its times both raw (``*_raw``) and
    rescaled to the nominal host (``setup_s``, ``sim_s_per_wall_s``).
    """
    cls = WORKLOADS[name]
    horizon = cls.smoke_horizon if smoke else cls.horizon
    report = {"workload": name, "seed": seed, "horizon": horizon, "trace": trace}
    reference = None
    if not trace:
        reference = Reference()
        reference.run(REFERENCE_STEPS)
    profiler = cProfile.Profile() if trace else None
    workload = None
    try:
        started = time.perf_counter()
        if profiler:
            profiler.enable()
        workload = cls(seed)
        setup_s = time.perf_counter() - started
        run_s = workload.run(horizon, reference)
        if profiler:
            profiler.disable()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = workload.scenario.sysprof.metrics.collect()
        attempted, failed = workload.operations(metrics)
        problems = workload.check(metrics)
        if problems:
            failed = attempted
        report.update({
            "setup_s_raw": setup_s,
            "run_s": run_s,
            "sim_s_per_wall_s_raw": horizon / run_s,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "monitoring_cpu_share": workload.monitoring_cpu_share(),
            "digest": _digest(workload.digest_records()),
            "problems": problems,
            "counts": _counts(metrics),
        })
        report.update(workload.extra())
        if reference is not None:
            speed = reference.speed()
            report.update({
                "host_speed": speed,
                "setup_s": setup_s * speed,
                "nominal_run_s": run_s * speed,
                "sim_s_per_wall_s": horizon / (run_s * speed),
            })
    except Exception:  # the rep is reported as failed, never lost
        if profiler:
            profiler.disable()
        report["problems"] = ["raised:\n" + traceback.format_exc()]
        report["attempted"] = report["failed"] = _attempted_so_far(workload)
    finally:
        if workload is not None:
            workload.close()
    if profiler:
        stats = pstats.Stats(profiler).stats
        report["layers"] = layer_self_times(stats)
        report["calls"] = call_counts(stats, CALLS)
    return report


def _attempted_so_far(workload):
    """Operations a rep that raised had attempted (1 when unknown)."""
    try:
        return max(1, workload.operations(workload.scenario.sysprof.metrics.collect())[0])
    except Exception:
        return 1


def _digest(records):
    from repro.experiments.common import trace_digest

    return trace_digest(records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = run_rep(args.workload, seed=args.seed, smoke=args.smoke, trace=args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

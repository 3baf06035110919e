"""Self-profiling harness: run a scenario under cProfile, see where
simulated time is spent in *host* time.

SysProf profiles the systems it monitors; this module points the same
idea at the reproduction itself.  ``python -m repro profile <scenario>``
runs a workload under :mod:`cProfile` — the ``microbench`` engine churn,
the ``sketch`` ingest loop, or any scenario registered in
:mod:`repro.service.scenarios` — then reports three things:

* a **package breakdown** — exclusive (self) time aggregated by
  top-level ``repro`` package (``sim``, ``ossim``, ``core``,
  ``observability``, ...), so a regression in the event core or the
  encoding kernels shows up as a share shift without reading raw pstats;
* a **top-N hotspot table** — per-function calls, self and cumulative
  seconds, ordered by self time;
* a **Chrome-trace JSON** of the hotspots (one ``X`` slice per
  function, laid end to end, duration = profiled self time) that loads
  in ``ui.perfetto.dev`` and passes
  :func:`repro.observability.tracer.validate_chrome_trace`.

Each scenario also defines an *events* count (engine events scheduled,
sketch updates) so the report carries an events/s headline
comparable to the ``benchmarks/`` numbers.  Scenarios are deterministic;
only the timings vary between runs.
"""

import cProfile
import io
import json
import pstats
import random
import time

from repro.service.scenarios import SCENARIOS as REGISTRY
from repro.service.scenarios import build_scenario

#: Top-level ``repro`` subpackages the breakdown buckets by; everything
#: else in the tree lands in ``repro (other)`` and non-repro frames
#: (stdlib, site-packages) in ``stdlib/other``.
PACKAGES = (
    "sim", "ossim", "core", "observability", "netsim", "cluster",
    "apps", "workloads", "experiments", "faults", "analysis",
)


# ---------------------------------------------------------------------------
# Scenarios


def _scenario_microbench(smoke):
    """Pure engine churn: the waitable callback chain from the engine
    benchmark plus standing timers — exercises the delivery lane and the
    timer heap."""
    from repro.sim.engine import Simulator, Waitable

    n_events = 20_000 if smoke else 300_000
    sim = Simulator()
    for index in range(1000):
        sim.schedule(1e6 + index, lambda: None)
    fired = [0]

    def tick(_w):
        fired[0] += 1
        if fired[0] < n_events:
            waitable = Waitable(sim)
            waitable.add_callback(tick)
            waitable.succeed()
        else:
            sim.schedule(0.5, lambda: None)  # drain through the store once

    seed = Waitable(sim)
    seed.add_callback(tick)
    seed.succeed()
    sim.run(until=5e5)
    return sim.stats()["events_scheduled"]


def _scenario_sketch(smoke):
    """Quantile-sketch ingest: batched ``update_many`` plus scalar
    ``add`` over a lognormal latency population."""
    from repro.observability.sketches import QuantileSketch

    batches = 20 if smoke else 200
    batch_size = 5_000
    rng = random.Random(7)
    values = [rng.lognormvariate(-6.0, 1.5) for _ in range(batch_size)]
    sketch = QuantileSketch(alpha=0.01)
    for _ in range(batches):
        sketch.update_many(values)
    scalar = QuantileSketch(alpha=0.01)
    for value in values:
        scalar.add(value)
    for q in (0.5, 0.95, 0.99):
        sketch.quantile(q)
    return sketch.count + scalar.count


def _registered(name):
    """A registered service scenario (:data:`repro.service.SCENARIOS`),
    built with its defaults and run to 0.5 s (smoke) or 3.0 s; its events
    are the events the engine scheduled (the scenario benchmark's
    ``sim.events``)."""
    def run(smoke):
        with build_scenario(name) as scenario:
            scenario.cluster.run(until=0.5 if smoke else 3.0)
            return scenario.sim.stats()["events_scheduled"]

    return run


SCENARIOS = {
    "microbench": (_scenario_microbench, "engine callback-delivery churn"),
    "sketch": (_scenario_sketch, "quantile sketch batch ingest"),
}
SCENARIOS.update(
    (name, (_registered(name), builder.__doc__.splitlines()[0].rstrip(".")))
    for name, builder in REGISTRY.items()
)


# ---------------------------------------------------------------------------
# Aggregation


def _package_of(filename):
    """Map a frame's filename onto a breakdown bucket."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        if path.startswith(("~", "<")):  # builtins / C calls
            return "stdlib/other"
        return "stdlib/other"
    rest = path[at + len(marker):]
    head = rest.split("/", 1)[0]
    if head in PACKAGES:
        return head
    return "repro (other)"


class ProfileReport:
    """Everything one profiled run produced."""

    __slots__ = (
        "scenario", "description", "events", "wall_seconds",
        "events_per_sec", "packages", "hotspots", "total_calls",
    )

    def __init__(self, scenario, description, events, wall_seconds,
                 packages, hotspots, total_calls):
        self.scenario = scenario
        self.description = description
        self.events = events
        self.wall_seconds = wall_seconds
        self.events_per_sec = events / wall_seconds if wall_seconds > 0 else 0.0
        self.packages = packages    # [(name, self_seconds, calls)], sorted
        self.hotspots = hotspots    # [(name, calls, self_s, cum_s)], sorted
        self.total_calls = total_calls

    def chrome_trace(self):
        """Hotspots as a Chrome trace-event document: one ``X`` slice per
        function laid end to end on a single track, plus package tracks.

        Durations are profiled self time (µs); the layout is a ranking
        visualization, not a timeline — but the document is a valid
        trace (``validate_chrome_trace`` accepts it) and loads in
        Perfetto.
        """
        events = [
            {"ph": "M", "pid": 1, "tid": 0, "ts": 0,
             "name": "process_name",
             "args": {"name": "repro profile: {}".format(self.scenario)}},
            {"ph": "M", "pid": 1, "tid": 1, "ts": 0,
             "name": "thread_name", "args": {"name": "hotspots (self time)"}},
            {"ph": "M", "pid": 1, "tid": 2, "ts": 0,
             "name": "thread_name", "args": {"name": "packages (self time)"}},
        ]
        data = []
        ts = 0.0
        for name, calls, self_s, cum_s in self.hotspots:
            dur = max(0.0, self_s) * 1e6
            data.append({
                "ph": "X", "pid": 1, "tid": 1, "ts": ts, "dur": dur,
                "name": name, "cat": "hotspot",
                "args": {"calls": calls, "self_s": round(self_s, 6),
                         "cum_s": round(cum_s, 6)},
            })
            ts += dur
        ts = 0.0
        for name, self_s, calls in self.packages:
            dur = max(0.0, self_s) * 1e6
            data.append({
                "ph": "X", "pid": 1, "tid": 2, "ts": ts, "dur": dur,
                "name": name, "cat": "package",
                "args": {"calls": calls, "self_s": round(self_s, 6)},
            })
            ts += dur
        # validate_chrome_trace wants data events globally sorted by ts.
        data.sort(key=lambda event: event["ts"])
        events.extend(data)
        return {
            "traceEvents": events,
            "otherData": {
                "scenario": self.scenario,
                "events": self.events,
                "wall_seconds": round(self.wall_seconds, 6),
                "events_per_sec": round(self.events_per_sec),
            },
        }

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "description": self.description,
            "events": self.events,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_sec": round(self.events_per_sec),
            "total_calls": self.total_calls,
            "packages": [
                {"package": name, "self_seconds": round(self_s, 6),
                 "calls": calls}
                for name, self_s, calls in self.packages
            ],
            "hotspots": [
                {"function": name, "calls": calls,
                 "self_seconds": round(self_s, 6),
                 "cum_seconds": round(cum_s, 6)}
                for name, calls, self_s, cum_s in self.hotspots
            ],
        }


def run_profile(scenario, smoke=False, top=15):
    """Run ``scenario`` under cProfile and aggregate the results.

    Returns a :class:`ProfileReport`.  ``smoke`` shrinks the workload to
    CI size; ``top`` bounds the hotspot table (the package breakdown is
    always complete).
    """
    try:
        fn, description = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            "unknown scenario {!r} (choose from {})".format(
                scenario, ", ".join(sorted(SCENARIOS))
            )
        ) from None
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        events = fn(smoke)
    finally:
        profiler.disable()
    wall = time.perf_counter() - started

    stats = pstats.Stats(profiler, stream=io.StringIO())
    by_package = {}
    hotspots = []
    total_calls = 0
    for (filename, lineno, funcname), row in stats.stats.items():
        cc, nc, tottime, cumtime, _callers = row
        total_calls += nc
        package = _package_of(filename)
        acc = by_package.get(package)
        if acc is None:
            by_package[package] = [tottime, nc]
        else:
            acc[0] += tottime
            acc[1] += nc
        short = filename.replace("\\", "/").rsplit("/", 1)[-1]
        label = ("{}:{}:{}".format(short, lineno, funcname)
                 if lineno else funcname)
        hotspots.append((label, nc, tottime, cumtime))
    hotspots.sort(key=lambda item: (-item[2], item[0]))
    packages = sorted(
        ((name, acc[0], acc[1]) for name, acc in by_package.items()),
        key=lambda item: -item[1],
    )
    return ProfileReport(
        scenario, description, events, wall, packages,
        hotspots[:top], total_calls,
    )


def format_report(report):
    """The two tables plus the events/s headline, as printable text."""
    from repro.experiments.common import format_table

    total_self = sum(self_s for _name, self_s, _calls in report.packages)
    package_rows = [
        (name, "{:.4f}".format(self_s),
         "{:.1f}%".format(100.0 * self_s / total_self if total_self else 0.0),
         str(calls))
        for name, self_s, calls in report.packages
    ]
    hotspot_rows = [
        (name, str(calls), "{:.4f}".format(self_s), "{:.4f}".format(cum_s))
        for name, calls, self_s, cum_s in report.hotspots
    ]
    lines = [
        format_table(
            ("package", "self s", "share", "calls"), package_rows,
            title="self time by package — {} ({})".format(
                report.scenario, report.description
            ),
        ),
        "",
        format_table(
            ("function", "calls", "self s", "cum s"), hotspot_rows,
            title="top {} hotspots".format(len(report.hotspots)),
        ),
        "",
        "{} events in {:.3f}s under cProfile -> {:,.0f} events/s "
        "({} calls profiled)".format(
            report.events, report.wall_seconds, report.events_per_sec,
            report.total_calls,
        ),
    ]
    return "\n".join(lines)


def write_chrome_trace(report, path):
    """Write (validated) hotspot slices as a Chrome trace JSON file."""
    from repro.observability.tracer import validate_chrome_trace

    doc = report.chrome_trace()
    count = validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return count

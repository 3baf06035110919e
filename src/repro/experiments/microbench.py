"""§3.1 microbenchmarks: linpack, iperf, and the overhead-configuration range.

Paper anchors:

* linpack MFLOPS unchanged with SysProf enabled (no network activity);
* iperf on 1 Gbps: ~930 Mbps -> ~810 Mbps (~13% overhead);
* iperf on 100 Mbps: ~3% overhead (link-bound; we measure ~0-1%);
* "the overhead of SysProf can be varied ranging from less than 1% of the
  system resource to more than 10%" via its configurable interface.
"""

from dataclasses import dataclass
from pathlib import Path

from repro.cluster import Cluster
from repro.core import SysProf, SysProfConfig
from repro.experiments.runner import run_points
from repro.workloads.iperf import run_iperf
from repro.workloads.linpack import spawn_linpack

BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_microbench.json"
BENCH_SCHEMA = "sysprof-repro/bench-microbench/v1"


@dataclass
class OverheadResult:
    label: str
    baseline: float
    monitored: float
    unit: str

    @property
    def overhead_pct(self):
        if self.baseline == 0:
            return 0.0
        return 100.0 * (self.baseline - self.monitored) / self.baseline

    def row(self):
        return (self.label, self.baseline, self.monitored, self.overhead_pct)


def _cluster(bandwidth_bps, seed=42):
    cluster = Cluster(seed=seed, bandwidth_bps=bandwidth_bps)
    cluster.add_node("tx")
    cluster.add_node("rx")
    cluster.add_node("mgmt")
    return cluster


def _install(cluster, config=None):
    sysprof = SysProf(cluster, config or SysProfConfig(eviction_interval=0.1))
    sysprof.install(monitored=["tx", "rx"], gpa_node="mgmt")
    sysprof.start()
    return sysprof


def linpack_experiment(duration=2.0, seed=42):
    """linpack MFLOPS with monitoring off vs on (same node also runs the
    SysProf daemon when monitored)."""
    results = []
    for monitored in (False, True):
        cluster = _cluster(1_000_000_000, seed=seed)
        if monitored:
            _install(cluster)
        task = spawn_linpack(cluster.node("tx"), duration)
        cluster.run(until=duration + 0.5)
        results.append(task.exit_value.mflops)
    return OverheadResult("linpack (MFLOPS)", results[0], results[1], "MFLOPS")


def iperf_experiment(bandwidth_bps, duration=0.3, seed=42):
    """iperf goodput with monitoring off vs on."""
    results = []
    for monitored in (False, True):
        cluster = _cluster(bandwidth_bps, seed=seed)
        if monitored:
            _install(cluster)
        results.append(run_iperf(cluster, "tx", "rx", duration=duration).mbps)
    label = "iperf {} Mbps link".format(int(bandwidth_bps / 1e6))
    return OverheadResult(label, results[0], results[1], "Mbps")


def _headline_point(args):
    """Picklable worker for one §3.1 headline benchmark."""
    kind, duration, seed = args
    if kind == "linpack":
        return linpack_experiment(duration=duration, seed=seed)
    if kind == "iperf-1g":
        return iperf_experiment(1_000_000_000, duration=duration, seed=seed)
    return iperf_experiment(100_000_000, duration=duration, seed=seed)


def run_headline_experiments(linpack_duration=1.5, iperf_duration=0.3,
                             seed=42, jobs=1):
    """The three §3.1 headline rows (linpack, iperf 1G, iperf 100M).

    Independent clusters per point, so ``jobs`` parallelism cannot change
    any number.
    """
    points = [
        ("linpack", linpack_duration, seed),
        ("iperf-1g", iperf_duration, seed),
        ("iperf-100m", iperf_duration, seed),
    ]
    return run_points(_headline_point, points, jobs=jobs)


def _overhead_point(args):
    """Picklable worker for one monitoring-configuration sweep point."""
    label, config, tweak, duration, seed = args
    cluster = _cluster(1_000_000_000, seed=seed)
    if config is not None:
        sysprof = _install(cluster, config)
        if tweak == "mask-all":
            sysprof.controller.disable_events(
                ["network", "scheduling", "syscall", "filesystem", "block"]
            )
    mbps = run_iperf(cluster, "tx", "rx", duration=duration).mbps
    return label, mbps


def overhead_range_experiment(duration=0.25, seed=42, jobs=1):
    """Sweep monitoring configurations to span <1% .. >10% overhead.

    Demonstrates the controller's "tradeoffs between the granularity,
    overheads, and delays of runtime diagnoses".  The first (unmonitored)
    point is the baseline for every row.
    """
    configurations = [
        ("off", None, None),
        ("attached, all events masked", SysProfConfig(eviction_interval=0.1), "mask-all"),
        ("class granularity", SysProfConfig(
            eviction_interval=0.1, granularity="class"), None),
        ("default (per-interaction)", SysProfConfig(eviction_interval=0.1), None),
        ("small buffers + fast eviction", SysProfConfig(
            eviction_interval=0.01, buffer_capacity=16), None),
        ("text encoding (no PBIO)", SysProfConfig(
            eviction_interval=0.01, buffer_capacity=16, text_encoding=True), None),
    ]
    measured = run_points(
        _overhead_point,
        [
            (label, config, tweak, duration, seed)
            for label, config, tweak in configurations
        ],
        jobs=jobs,
    )
    baseline = measured[0][1]
    return [
        OverheadResult(label, baseline, mbps, "Mbps") for label, mbps in measured
    ]


def _result_dict(result):
    return {
        "label": result.label,
        "unit": result.unit,
        "baseline": round(result.baseline, 2),
        "monitored": round(result.monitored, 2),
        "overhead_pct": round(result.overhead_pct, 2),
    }


def microbench_payload(headline, sweep):
    """JSON-ready trajectory payload for ``BENCH_microbench.json``.

    ``headline`` is :func:`run_headline_experiments` output (linpack +
    the two iperf links); ``sweep`` is
    :func:`overhead_range_experiment` output.  These two tables are the
    machine-readable source for the generated sections of
    EXPERIMENTS.md (see tools/gen_docs.py); values are rounded here so
    the rendered tables are stable across regenerations from the same
    entry.
    """
    return {
        "headline": [_result_dict(result) for result in headline],
        "overhead_range": [_result_dict(result) for result in sweep],
    }

"""§3.3: QoS scheduling of the RUBiS multi-tier web service.

Reproduces Figures 6 and 7: two request classes (high-priority bidding,
low-priority comment) scheduled by DWCS over two servlet servers.
Halfway through the run a background load lands on one servlet.  Plain
DWCS dispatches blindly and degrades; resource-aware DWCS consumes
SysProf node statistics (over the kernel pub-sub channels) and routes
around the loaded server — "the higher priority bidding request has very
insignificant drop".  Also measures the paper's headline costs: the
application throughput decrease with SysProf enabled (<2%) against the
throughput gain RA-DWCS buys (>14%).
"""

from dataclasses import dataclass, field, replace

from repro.apps.rubis.requests import BIDDING, COMMENT
from repro.core import SysProfConfig
from repro.experiments.common import trace_digest
from repro.experiments.runner import run_points
from repro.service.scenarios import build_scenario
from repro.workloads.httperf import HttperfConfig

WARMUP = 1.0


@dataclass
class RubisExperimentConfig:
    duration: float = 20.0
    load_at: float = 10.0       # relative to workload start
    load_duty: float = 0.6
    rate_per_class: float = 150.0
    sessions_per_class: int = 30
    slots_per_servlet: int = 10
    drop_factor: float = 4.0
    seed: int = 21
    start: float = 0.5
    monitor: bool = True


@dataclass
class RubisRunResult:
    scheduler: str
    pre_throughput: dict
    post_throughput: dict
    dropped: dict
    violations: dict
    series: dict = field(default_factory=dict)
    servlet_split: dict = field(default_factory=dict)
    monitor_enabled: bool = True
    trace_hash: str = ""

    @property
    def pre_total(self):
        return sum(self.pre_throughput.values())

    @property
    def post_total(self):
        return sum(self.post_throughput.values())


def run_rubis_experiment(scheduler="dwcs", config=None, inject_load=True):
    """One full run; ``scheduler`` is ``"dwcs"`` or ``"radwcs"``."""
    config = config or RubisExperimentConfig()
    monitoring = SysProfConfig(eviction_interval=0.1) if config.monitor else None
    with build_scenario(
        "rubis", seed=config.seed, scheduler=scheduler,
        httperf=HttperfConfig(
            sessions_per_class=config.sessions_per_class,
            rate_per_class=config.rate_per_class,
            duration=config.duration,
            start=config.start,
        ),
        drop_factor=config.drop_factor,
        slots_per_servlet=config.slots_per_servlet,
        monitoring=monitoring, rules=(),
    ) as scenario:
        sysprof = scenario.sysprof
        dwcs, dispatcher = scenario.app["dwcs"], scenario.app["dispatcher"]
        load_start = config.start + config.load_at
        if inject_load:
            scenario.app["site"].inject_cpu_load(
                "servlet1", start=load_start, duration=config.duration,
                duty=config.load_duty,
            )
        scenario.cluster.run(until=config.start + config.duration + 2.0)

    end = config.start + config.duration
    pre = {}
    post = {}
    for profile in (BIDDING, COMMENT):
        pre[profile.name] = dispatcher.mean_throughput(
            profile.name, config.start + WARMUP, load_start
        )
        post[profile.name] = dispatcher.mean_throughput(
            profile.name, load_start + WARMUP, end
        )
    stream_stats = dwcs.stats()
    servlet_split = {}
    for record in dispatcher.completions:
        servlet_split.setdefault(record.request_class, {}).setdefault(
            record.servlet, 0
        )
        servlet_split[record.request_class][record.servlet] += 1
    if sysprof is not None:
        sysprof.flush()
        trace_hash = trace_digest(sysprof.gpa.query_interactions())
    else:
        trace_hash = ""
    return RubisRunResult(
        scheduler=scheduler,
        pre_throughput=pre,
        post_throughput=post,
        dropped={name: stats["dropped"] for name, stats in stream_stats.items()},
        violations={name: stats["violations"] for name, stats in stream_stats.items()},
        series=dispatcher.throughput_series(bin_width=1.0, until=end),
        servlet_split=servlet_split,
        monitor_enabled=config.monitor,
        trace_hash=trace_hash,
    )


def _comparison_point(args):
    """Picklable worker for one scheduler variant of the comparison."""
    scheduler, config, inject_load = args
    return run_rubis_experiment(scheduler, config, inject_load=inject_load)


def run_comparison(config=None, jobs=1):
    """Figure 6 vs Figure 7 plus headline gain.

    The two scheduler runs are independent simulations; ``jobs=2`` runs
    them in parallel worker processes with identical results.
    """
    config = config or RubisExperimentConfig()
    dwcs, radwcs = run_points(
        _comparison_point,
        [("dwcs", config, True), ("radwcs", config, True)],
        jobs=jobs,
    )
    gain = 0.0
    if dwcs.post_total:
        gain = 100.0 * (radwcs.post_total - dwcs.post_total) / dwcs.post_total
    return dwcs, radwcs, gain


def monitoring_cost_experiment(config=None):
    """Headline claim: enabling SysProf costs the application <2%.

    Runs the plain-DWCS workload without the mid-run load, monitor off vs
    on, and compares steady-state total throughput.
    """
    config = config or RubisExperimentConfig()
    results = {}
    for monitor in (False, True):
        result = run_rubis_experiment(
            "dwcs", replace(config, monitor=monitor), inject_load=False
        )
        results[monitor] = result.pre_total + result.post_total
    baseline, monitored = results[False], results[True]
    overhead_pct = (
        100.0 * (baseline - monitored) / baseline if baseline else 0.0
    )
    return baseline, monitored, overhead_pct

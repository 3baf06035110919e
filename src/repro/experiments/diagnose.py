"""Online diagnosis experiment: detect, blame, and drill into a CPU hog.

The closed-loop counterpart of ``failures.py``: instead of killing the
monitoring plane and asking how fast its absence is noticed, this run
degrades the *workload* — a kernel-band CPU hog lands on one NFS backend
mid-run — and asks whether the :class:`~repro.observability.DiagnosisEngine`
notices **online**, from streaming sketch rows alone:

1. Iozone traffic flows through the virtual storage proxy while
   per-class latency sketches ship from every monitored node.
2. At ``hog_start`` the :class:`~repro.faults.FaultInjector` spawns a
   duty-cycle hog in the backend's kernel band; nfsd now shares the
   round-robin quantum and write latency degrades.
3. The engine's latency SLO fires, blame attribution names the hogged
   backend and its dominant stage, and the controller drills down —
   shrinking only that node's eviction interval.
4. The hog expires, the percentiles drain back under the clear
   threshold, the alert resolves, and the drill-down is restored.

The run reports detection latency (SLO fire time minus hog onset),
blame correctness, the drill-down's interval change and measured
monitoring-CPU delta (from the attribution ledger), plus a dashboard
snapshot captured mid-incident.  Everything is seeded; the trace digest
makes same-config runs byte-comparable.
"""

from dataclasses import dataclass, field

from repro.core import SysProfConfig
from repro.experiments.common import trace_digest
from repro.faults import FaultSchedule
from repro.service.scenarios import build_scenario
from repro.workloads.iozone import IozoneConfig


@dataclass
class DiagnoseConfig:
    """Workload, fault, and SLO tunables for one diagnosis run."""

    clients: int = 1
    backends: int = 2
    threads_per_client: int = 2
    ops_per_thread: int = 900     # enough writes to outlast the incident
    # -- fault -----------------------------------------------------------
    hog_node: str = "backend1"
    hog_start: float = 1.5
    hog_duration: float = 2.0
    hog_utilization: float = 0.95
    # -- SLO / engine ----------------------------------------------------
    # Unhogged p95 sits at 2.5-4.6ms on this workload; the kernel-band
    # hog pushes it past 16ms, so 8ms splits the two regimes cleanly.
    rule: str = "p95(nfs-write) < 8ms"
    lookback: float = 1.0         # sketch merge window per evaluation
    eval_interval: float = 0.1
    drill_factor: int = 4
    # -- monitoring plane ------------------------------------------------
    eviction_interval: float = 0.2
    sketch_alpha: float = 0.01
    stale_threshold: float = 1.0
    # -- run -------------------------------------------------------------
    seed: int = 11
    sim_limit: float = 8.0


def smoke_config():
    """A seconds-not-minutes configuration for CI and --smoke runs."""
    return DiagnoseConfig(
        ops_per_thread=350,
        hog_start=1.0,
        hog_duration=1.5,
        sim_limit=6.0,
    )


@dataclass
class DiagnoseRunResult:
    """What one diagnosis run detected, blamed, and measured."""

    hog_at: float                 # actual hog onset (simulated seconds)
    hog_duration: float
    detected: bool
    detection_latency: float      # hog onset -> SLO fire (-1 if missed)
    resolved: bool
    resolution_latency: float     # hog end -> alert resolve (-1 if never)
    blamed_node: str
    blamed_stage: str
    blame_correct: bool           # blamed_node == the hogged node
    drilled: bool
    drill_restored: bool
    interval_before: float        # blamed node's eviction interval
    interval_during: float        # ... while drilled down
    monitoring_share_during: float  # blamed node, inside the drill window
    monitoring_share_overall: float  # blamed node, whole run
    alerts_fired: int
    evaluations: int
    sketch_rows: int              # sketch records the GPA merged
    dashboard: str                # text snapshot captured mid-incident
    alert_log: list = field(default_factory=list)
    trace_hash: str = ""


def run_diagnose_experiment(config=None):
    """One hog incident end to end; returns a :class:`DiagnoseRunResult`."""
    config = config or DiagnoseConfig()
    with build_scenario(
        "nfs", seed=config.seed, clients=config.clients,
        backends=config.backends,
        iozone=IozoneConfig(
            threads=config.threads_per_client,
            ops_per_thread=config.ops_per_thread,
        ),
        monitoring=SysProfConfig(
            eviction_interval=config.eviction_interval,
            latency_sketches=True,
            sketch_alpha=config.sketch_alpha,
            stale_threshold=config.stale_threshold,
        ),
        rules=(config.rule,),
        diagnosis={
            "lookback": config.lookback,
            "eval_interval": config.eval_interval,
            "drill_factor": config.drill_factor,
        },
        schedule=FaultSchedule().cpu_hog(
            config.hog_start, config.hog_node, config.hog_duration,
            utilization=config.hog_utilization,
        ),
    ) as scenario:
        return _run(config, scenario)


def _run(config, scenario):
    cluster, sysprof, engine = scenario.cluster, scenario.sysprof, scenario.engine

    # Dashboard snapshot mid-incident (pure callback: reads engine state,
    # charges nothing, so it cannot perturb the run).
    snapshot = {"text": ""}
    snapshot_at = config.hog_start + 0.75 * config.hog_duration

    def capture():
        snapshot["text"] = engine.dashboard(cluster.sim.now)

    cluster.sim.schedule(snapshot_at, capture)

    cluster.run(until=config.sim_limit)
    sysprof.flush()

    log = scenario.injector.log
    hog_at = log[0]["at"] if log else config.hog_start
    hog_end = hog_at + config.hog_duration
    alert = next(
        (a for a in engine.alerts if a.rule.text == config.rule), None
    )
    blame = alert.blame if alert is not None else {}
    episode = next(
        (e for e in engine.drill_log if e["node"] == config.hog_node), None
    )
    if episode is None and engine.drill_log:
        episode = engine.drill_log[0]

    share_during = 0.0
    if episode is not None and episode.get("busy_during"):
        share_during = episode["monitoring_during"] / episode["busy_during"]
    blamed = blame.get("node") or ""
    return DiagnoseRunResult(
        hog_at=hog_at,
        hog_duration=config.hog_duration,
        detected=alert is not None,
        detection_latency=(alert.fired_at - hog_at) if alert else -1.0,
        resolved=alert is not None and alert.resolved_at is not None,
        resolution_latency=(
            alert.resolved_at - hog_end
            if alert is not None and alert.resolved_at is not None
            else -1.0
        ),
        blamed_node=blamed,
        blamed_stage=blame.get("stage") or "",
        blame_correct=blamed == config.hog_node,
        drilled=episode is not None,
        drill_restored=episode is not None and episode["restored_at"] is not None,
        interval_before=episode["interval_before"] if episode else 0.0,
        interval_during=episode["interval_during"] if episode else 0.0,
        monitoring_share_during=share_during,
        monitoring_share_overall=scenario.ledger.monitoring_share(config.hog_node),
        alerts_fired=engine.alerts_fired,
        evaluations=engine.evaluations,
        sketch_rows=sysprof.gpa.sketches.rows_ingested,
        dashboard=snapshot["text"],
        alert_log=[a.as_dict() for a in engine.alerts],
        trace_hash=trace_digest(sysprof.gpa.query_interactions()),
    )

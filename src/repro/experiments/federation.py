"""Federation scaling experiment: root ingress vs cluster size.

A flat SysProf install ships every node's frames straight to the root
GPA, so root ingress bytes and root simulated CPU grow linearly with
node count.  The federation tree (ROADMAP item 1) bounds both: each
rack's frames terminate at a :class:`~repro.core.federation.ZoneGpa`
that forwards merged sketches, count-weighted class rollups, and one
zone-health heartbeat upward per forward interval, so the root's load
scales with *zones*, not nodes.

Each experiment point builds a spine/leaf cluster
(:func:`~repro.cluster.topology.build_spine_leaf`), installs SysProf
either flat or federated **on the same topology** (rack-GPA nodes exist
but sit idle in flat mode), drives synthetic per-node telemetry
(:mod:`repro.workloads.synthetic` — real buffers, daemons, frames, and
wire bytes; no request path), and measures:

* ``root_bytes_per_s`` — the root GPA's ingress bytes over the run;
* ``root_cpu_share`` — the management node's simulated-CPU busy share;
* ``staleness_p95`` — p95 age of the freshest per-child nodestats row
  at the root, sampled every ``sample_interval`` after warmup.

:func:`run_federation_sweep` repeats this at several node counts and is
what ``python -m repro federation`` and the benchmark harness (which
appends to ``BENCH_federation.json``) both drive.
"""

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core import SysProfConfig
from repro.faults import FaultSchedule
from repro.service.scenarios import build_scenario

__all__ = [
    "BENCH_PATH",
    "BENCH_SCHEMA",
    "FederationConfig",
    "FederationPoint",
    "PartitionPoint",
    "partition_payload",
    "run_federation_point",
    "run_federation_sweep",
    "run_partition_point",
    "run_partition_sweep",
    "smoke_config",
    "sweep_payload",
]


@dataclass
class FederationConfig:
    """One scaling point: cluster shape, monitoring plane, and run length."""

    nodes: int = 64               # monitored nodes (excl. GPA/mgmt hosts)
    zones: int = 0                # 0 -> one zone per ~sqrt(nodes) rack
    federated: bool = True        # False: flat install on the same racks
    # -- monitoring plane ------------------------------------------------
    eviction_interval: float = 0.25
    forward_interval: float = 0.5
    eviction_stagger: float = 0.002  # de-sync the eviction herd
    stale_threshold: float = 1.0
    # -- synthetic telemetry ---------------------------------------------
    request_classes: tuple = ("rpc",)
    samples_per_window: int = 16
    # -- staleness sampling ----------------------------------------------
    sample_interval: float = 0.2
    warmup: float = 1.5           # skip startup transient before sampling
    # -- run -------------------------------------------------------------
    duration: float = 5.0
    seed: int = 17


def default_zones(nodes):
    """Balanced two-tier shape: ~sqrt(nodes) racks of ~sqrt(nodes)."""
    return max(2, int(round(math.sqrt(nodes))))


def smoke_config(nodes=16, zones=2):
    """A seconds-not-minutes configuration for CI and --smoke runs."""
    return FederationConfig(nodes=nodes, zones=zones, duration=3.0)


@dataclass
class FederationPoint:
    """Measured root load for one (nodes, mode) scaling point."""

    nodes: int
    zones: int
    federated: bool
    duration: float
    root_ingress_bytes: int
    root_bytes_per_s: float
    root_cpu_seconds: float
    root_cpu_share: float
    staleness_p95: float
    staleness_samples: int
    root_records: int
    root_children: int            # distinct nodes the root sees reporting
    zone_rows_forwarded: int
    zone_forwards: int
    wall_seconds: float

    def row(self):
        return (
            self.nodes,
            "federated" if self.federated else "flat",
            self.zones if self.federated else 0,
            round(self.root_bytes_per_s),
            "{:.4f}".format(self.root_cpu_share),
            "{:.3f}".format(self.staleness_p95),
        )


def _percentile(values, p):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def _build(config, federated=True, standbys=False, **monitoring):
    """The registered ``federation`` scenario at ``config``'s shape and
    monitoring plane (plus ``monitoring`` overrides), without SLO rules;
    returns it with its zone count."""
    zones = config.zones or default_zones(config.nodes)
    scenario = build_scenario(
        "federation", seed=config.seed, zones=zones,
        nodes_per_zone=max(1, config.nodes // zones),
        federated=federated, standbys=standbys,
        monitoring=SysProfConfig(
            eviction_interval=config.eviction_interval,
            forward_interval=config.forward_interval,
            eviction_stagger=config.eviction_stagger,
            stale_threshold=config.stale_threshold,
            **monitoring,
        ),
        request_classes=config.request_classes,
        samples_per_window=config.samples_per_window, rules=(),
    )
    return scenario, zones


def run_federation_point(config=None):
    """Build, run, and measure one scaling point."""
    config = config or FederationConfig()
    started = time.perf_counter()
    scenario, zones = _build(config, federated=config.federated)
    cluster, sysprof = scenario.cluster, scenario.sysprof

    gpa = sysprof.gpa
    ages = []

    def sample_staleness():
        now = cluster.sim.now
        for history in gpa.node_stats.values():
            if history:
                ages.append(max(0.0, now - history[-1]["ts"]))
        if now + config.sample_interval <= config.duration:
            cluster.sim.schedule(config.sample_interval, sample_staleness)

    cluster.sim.schedule(config.warmup, sample_staleness)
    with scenario:
        cluster.run(until=config.duration)

    mgmt_kernel = cluster.node("mgmt").kernel
    elapsed = cluster.sim.now or config.duration
    zone_rows = zone_forwards = 0
    if sysprof.federation is not None:
        for zone_gpa in sysprof.federation.all_zones():
            zone_rows += zone_gpa.rows_forwarded
            zone_forwards += zone_gpa.forwards
    return FederationPoint(
        nodes=len(sysprof.monitors),
        zones=zones if config.federated else 0,
        federated=config.federated,
        duration=elapsed,
        root_ingress_bytes=gpa.bytes_received,
        root_bytes_per_s=gpa.bytes_received / elapsed,
        root_cpu_seconds=mgmt_kernel.cpu.busy_time,
        root_cpu_share=mgmt_kernel.cpu.busy_time / elapsed,
        staleness_p95=_percentile(ages, 95.0),
        staleness_samples=len(ages),
        root_records=gpa.records_received,
        root_children=len(gpa.node_stats),
        zone_rows_forwarded=zone_rows,
        zone_forwards=zone_forwards,
        wall_seconds=time.perf_counter() - started,
    )


def run_federation_sweep(node_counts=(16, 64, 256), base_config=None,
                         modes=(False, True)):
    """Measure flat and federated root load across ``node_counts``.

    Returns ``{"points": [FederationPoint...]}`` ordered by node count
    then mode (flat before federated), the trajectory shape recorded in
    ``BENCH_federation.json``.
    """
    base = base_config or FederationConfig()
    points = []
    for nodes in node_counts:
        for federated in modes:
            config = replace(
                base, nodes=nodes, zones=base.zones or default_zones(nodes),
                federated=federated,
            )
            points.append(run_federation_point(config))
    return {"points": points}


@dataclass
class PartitionPoint:
    """Measured partition-tolerance outcome for one fault scenario.

    ``scenario`` is a :data:`~repro.faults.schedule.PARENT_PARTITION_SCOPES`
    value: ``uplink`` cuts the whole zone subtree off from the root (the
    retention path must hold condensation windows), ``gpa`` isolates the
    zone's GPA node (members must reparent to the standby zone).
    """

    scenario: str
    nodes: int
    zones: int
    target_zone: str
    standby_zone: str
    partition_start: float
    partition_duration: float
    detect_latency_s: float       # partition -> last affected link failed over
    return_latency_s: float       # heal -> last affected link back on primary
    coverage_gap_s: float         # summed failover-window seconds (all links)
    member_staleness_max_s: float  # worst sampled member age at its adopter
    member_staleness_bound_s: float  # detection + two eviction windows
    staleness_bounded: bool
    rows_lost: int                # class-summary count conservation residual
    reparents: int
    escalations: int
    returns: int
    forward_failures: int
    wall_seconds: float

    def row(self):
        return (
            self.scenario,
            self.target_zone,
            "{:.2f}".format(self.detect_latency_s),
            "{:.2f}".format(self.return_latency_s),
            "{:.2f}".format(self.coverage_gap_s),
            "{:.2f}/{:.2f}".format(
                self.member_staleness_max_s, self.member_staleness_bound_s
            ),
            self.rows_lost,
            "{}/{}/{}".format(self.reparents, self.escalations, self.returns),
        )


def run_partition_point(config=None, scenario="gpa", partition_start=1.0,
                        partition_duration=2.0, settle=2.5):
    """Partition one zone away from its parent tier and measure recovery.

    Builds the same federated topology as :func:`run_federation_point`
    but with a *ring* of standbys (zone ``i`` covers for zone ``i+1``),
    arms a ``parent_partition`` window against the first zone, and
    measures detection / failover / return latency from the affected
    :class:`~repro.core.federation.ParentLink` event logs, the sampled
    worst member staleness at whichever tier currently adopts each
    member, and the end-to-end class-summary count conservation (rows
    ingested by zone tiers == rows condensed to the root + rows still
    pending — the retention invariant: nothing forwarded is ever lost to
    a dead parent).
    """
    config = config or smoke_config()
    started = time.perf_counter()
    # Bound the return probe so the settle window after heal is enough
    # for every link to make it back to its primary.
    built, zones = _build(
        config, standbys=True, reparent_probe_base=0.25, reparent_probe_cap=1.0
    )
    cluster, sysprof = built.cluster, built.sysprof
    federation = sysprof.federation
    target_zone = federation.all_zones()[0]
    target = target_zone.zone
    standby = target_zone.standby or ""
    target_members = list(target_zone.members)
    injector = built.injector
    injector.arm(
        FaultSchedule().parent_partition_window(
            partition_start, partition_duration, target, scope=scenario
        )
    )

    duration = partition_start + partition_duration + settle
    member_ages = []

    def sample_members():
        """Worst member age at whichever tier currently adopts it."""
        now = cluster.sim.now
        worst = 0.0
        for member in target_members:
            tier = federation._adopter_tier(
                federation.adopted.get(member, target)
            )
            history = tier.node_stats.get(member) if tier is not None else None
            if history:
                worst = max(worst, now - history[-1]["ts"])
        member_ages.append(worst)
        if now + config.sample_interval <= duration:
            cluster.sim.schedule(config.sample_interval, sample_members)

    cluster.sim.schedule(partition_start, sample_members)
    with built:
        cluster.run(until=duration)

    links = []
    if scenario == "gpa":
        for member in target_members:
            link = sysprof.monitors[member].daemon.parent_link
            if link is not None:
                links.append(link)
    else:
        link = federation.zone(target).parent_link
        if link is not None:
            links.append(link)
    partition_at = next(
        e["at"] for e in injector.log if e["kind"] == "parent_partition"
    )
    heal_at = next(e["at"] for e in injector.log if e["kind"] == "heal")
    detect = return_latency = 0.0
    for link in links:
        overs = [e["at"] for e in link.events
                 if e["event"] in ("reparent", "probe-only")]
        backs = [e["at"] for e in link.events if e["event"] == "return"]
        if overs:
            detect = max(detect, overs[0] - partition_at)
        if backs:
            return_latency = max(return_latency, backs[-1] - heal_at)

    # Forward-path conservation: every class-summary count a zone tier
    # ingested is either condensed at the root or still pending locally.
    zone_received = zone_pending = 0
    forward_failures = 0
    for zone_gpa in federation.all_zones():
        zone_received += sum(r["count"] for r in zone_gpa.class_summaries)
        zone_pending += sum(
            acc["count"] for acc in zone_gpa._pending_classes.values()
        )
        forward_failures += zone_gpa.forward_failures
    root_condensed = sum(
        r["count"] for r in sysprof.gpa.class_summaries
        if r["node"].startswith("zone:")
    )
    rows_lost = zone_received - root_condensed - zone_pending

    staleness_max = max(member_ages) if member_ages else 0.0
    bound = detect + 2.0 * config.eviction_interval + config.sample_interval
    return PartitionPoint(
        scenario=scenario,
        nodes=len(sysprof.monitors),
        zones=zones,
        target_zone=target,
        standby_zone=standby,
        partition_start=partition_at,
        partition_duration=heal_at - partition_at,
        detect_latency_s=detect,
        return_latency_s=return_latency,
        coverage_gap_s=sum(link.coverage_gap_s for link in links),
        member_staleness_max_s=staleness_max,
        member_staleness_bound_s=bound,
        staleness_bounded=staleness_max <= bound,
        rows_lost=rows_lost,
        reparents=sum(link.reparents for link in links),
        escalations=sum(link.escalations for link in links),
        returns=sum(link.returns for link in links),
        forward_failures=forward_failures,
        wall_seconds=time.perf_counter() - started,
    )


def run_partition_sweep(base_config=None, scenarios=("uplink", "gpa")):
    """Run every partition scenario against one topology configuration."""
    return {
        "points": [
            run_partition_point(config=base_config, scenario=scenario)
            for scenario in scenarios
        ]
    }


def partition_payload(sweep):
    """JSON-ready ``partition`` trajectory block for BENCH_federation.json."""
    return [
        {
            "scenario": p.scenario,
            "nodes": p.nodes,
            "zones": p.zones,
            "target_zone": p.target_zone,
            "standby_zone": p.standby_zone,
            "detect_latency_s": round(p.detect_latency_s, 4),
            "return_latency_s": round(p.return_latency_s, 4),
            "coverage_gap_s": round(p.coverage_gap_s, 4),
            "member_staleness_max_s": round(p.member_staleness_max_s, 4),
            "member_staleness_bound_s": round(p.member_staleness_bound_s, 4),
            "staleness_bounded": p.staleness_bounded,
            "rows_lost": p.rows_lost,
            "reparents": p.reparents,
            "escalations": p.escalations,
            "returns": p.returns,
            "forward_failures": p.forward_failures,
            "wall_seconds": round(p.wall_seconds, 2),
        }
        for p in sweep["points"]
    ]


#: Where the CLI appends its scaling trajectory (repo root).
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_federation.json"
BENCH_SCHEMA = "sysprof-repro/bench-federation/v1"


def sweep_payload(sweep):
    """JSON-ready trajectory payload for ``BENCH_federation.json``."""
    return {
        "points": [
            {
                "nodes": p.nodes,
                "mode": "federated" if p.federated else "flat",
                "zones": p.zones,
                "root_bytes_per_s": round(p.root_bytes_per_s, 1),
                "root_ingress_bytes": p.root_ingress_bytes,
                "root_cpu_share": round(p.root_cpu_share, 6),
                "staleness_p95": round(p.staleness_p95, 4),
                "root_children": p.root_children,
                "zone_rows_forwarded": p.zone_rows_forwarded,
                "wall_seconds": round(p.wall_seconds, 2),
            }
            for p in sweep["points"]
        ]
    }

"""Federation end-to-end: determinism vs flat, and two-tier blame."""

from repro.cluster import Cluster, build_spine_leaf
from repro.core import SysProf, SysProfConfig, ZoneSpec
from repro.experiments.common import trace_digest
from repro.observability import DiagnosisEngine
from repro.workloads.iozone import IozoneConfig, IozoneResults, spawn_iozone
from repro.workloads.synthetic import install_synthetic_load

MONITORED = ["r0n0", "r0n1", "r1n0"]  # proxy + two backends


def _run_nfs(federated, seed=31):
    """One NFS run over an identical spine/leaf topology.

    The zone GPA hosts sit on the spine in *both* modes (idle when flat)
    so member->subscriber path latency is identical either way — the
    monitored daemons see the same ack timing, which is what makes the
    traces byte-comparable.
    """
    cluster = Cluster(seed=seed)
    build_spine_leaf(
        cluster, racks=2, nodes_per_rack=2, with_rack_gpa=False,
        mgmt_node="mgmt", with_disk=True,
    )
    for host in ("z0", "z1"):
        cluster.add_node(host)  # spine-attached, like mgmt

    from repro.apps.nfs.service import VirtualStorageService

    VirtualStorageService(cluster, "r0n0", ["r0n1", "r1n0"]).start()

    sysprof = SysProf(
        cluster,
        SysProfConfig(eviction_interval=0.2, latency_sketches=True,
                      forward_interval=0.4),
    )
    if federated:
        sysprof.install(
            zones=[
                ZoneSpec(name="z0", gpa_node="z0",
                         members=["r0n0", "r0n1"]),
                ZoneSpec(name="z1", gpa_node="z1", members=["r1n0"]),
            ],
            gpa_node="mgmt",
        )
    else:
        sysprof.install(monitored=list(MONITORED), gpa_node="mgmt")
    sysprof.start()

    results = IozoneResults()
    spawn_iozone(
        cluster.node("r1n1"), "r0n0",
        IozoneConfig(threads=2, ops_per_thread=120), results,
    )
    cluster.run(until=5.0)
    sysprof.flush()

    if federated:
        records = []
        for zone in sysprof.federation.all_zones():
            records.extend(zone.query_interactions())
    else:
        records = sysprof.gpa.query_interactions()
    records.sort(
        key=lambda r: (r["node"], r["start_ts"], r["interaction_id"])
    )
    return trace_digest(records), results, len(records)


def test_flat_and_federated_traces_hash_identical():
    """Same seed, same topology, same workload: interposing zone GPAs
    must not perturb the monitored system.  The interaction records the
    plane captures (flat: at the root; federated: across zone stores)
    hash byte-identical."""
    flat_digest, flat_results, flat_count = _run_nfs(federated=False)
    fed_digest, fed_results, fed_count = _run_nfs(federated=True)
    assert flat_count > 0
    assert flat_count == fed_count
    assert flat_results.count == fed_results.count
    assert flat_results.operations == fed_results.operations
    assert flat_digest == fed_digest


def test_federated_runs_are_seed_deterministic():
    first, _, _ = _run_nfs(federated=True)
    second, _, _ = _run_nfs(federated=True)
    assert first == second


def _build_hot_member_cluster(hot_node="r1n0", standbys=False):
    cluster = Cluster(seed=41)
    topology = build_spine_leaf(
        cluster, racks=2, nodes_per_rack=2, mgmt_node="mgmt"
    )
    sysprof = SysProf(
        cluster,
        SysProfConfig(eviction_interval=0.1, forward_interval=0.25,
                      latency_sketches=False),
    )
    specs = [
        ZoneSpec(name=rack.name, gpa_node=rack.gpa_node,
                 members=list(rack.nodes))
        for rack in topology.racks
    ]
    if standbys:
        for index, spec in enumerate(specs):
            spec.standby = specs[(index + 1) % len(specs)].name
    sysprof.install(zones=specs, gpa_node="mgmt")
    install_synthetic_load(
        sysprof, samples_per_window=16, hot_nodes=[hot_node], hot_factor=8.0
    )
    return cluster, sysprof, hot_node


def test_blame_descends_two_tiers_to_the_hot_member():
    """The SLO fires at the root on zone-merged sketches; blame walks
    the federation tree — zone pseudo-node first, then the member whose
    class summaries (held two tiers below the root) are slow."""
    cluster, sysprof, hot_node = _build_hot_member_cluster()
    engine = DiagnosisEngine(
        sysprof, rules=["p95(rpc) < 6ms"],
        lookback=1.0, eval_interval=0.2,
    )
    sysprof.start()
    cluster.run(until=4.0)
    alert = next(a for a in engine.alerts)
    blame = alert.blame
    assert blame["path"] == ["zone:r1"]
    assert blame["node"] == hot_node
    assert blame["stage"] in ("kernel-wait", "kernel-cpu", "user")
    # The root never saw the member directly — only its zone.
    assert hot_node not in sysprof.gpa.node_stats
    assert "zone:r1" in sysprof.gpa.node_stats


def test_blame_follows_hot_member_through_standby_after_zone_kill():
    """Tentpole e2e: the hot member's zone GPA dies mid-incident.  Its
    members reparent to the standby zone, whose rollups keep the SLO
    violation visible at the root — and blame descent walks the rewired
    path (standby pseudo-node, then the *adopted* hot member)."""
    cluster, sysprof, hot_node = _build_hot_member_cluster(standbys=True)
    engine = DiagnosisEngine(
        sysprof, rules=["p95(rpc) < 6ms"],
        lookback=1.0, eval_interval=0.2,
    )
    sysprof.start()
    cluster.run(until=1.5)
    sysprof.federation.zone("r1").kill("test")
    cluster.run(until=4.0)
    federation = sysprof.federation
    # The orphaned members were adopted by the standby zone r0.
    assert federation.adopted == {"r1n0": "r0", "r1n1": "r0"}
    assert hot_node in federation.zone("r0").node_stats
    blame = engine.blame(engine.rules[0], cluster.sim.now)
    assert blame["path"] == ["zone:r0"]
    assert blame["node"] == hot_node
    assert blame["stage"] in ("kernel-wait", "kernel-cpu", "user")
    # The violation itself is still live at the root via the standby.
    assert engine.active

"""Zone GPAs: condensation, forwarding, restart, and isolation."""

import random

import pytest

from repro.cluster import Cluster, build_spine_leaf
from repro.core import SysProf, SysProfConfig, ZoneGpa, ZoneSpec
from repro.core.channels import ChannelHub
from repro.core.lpa import SKETCH_FORMAT
from repro.observability.diagnosis import DiagnosisEngine
from repro.observability.sketches import QuantileSketch
from repro.workloads.synthetic import install_synthetic_load
from tests.core.helpers import build_monitored_pair


def build_federated(seed=13, racks=2, per=2, eviction_interval=0.1,
                    forward_interval=0.25, stale_threshold=1.0,
                    synthetic=True, standbys=False):
    """Small spine/leaf cluster with one zone per rack and a root GPA.

    ``standbys=True`` arranges the zones in a ring (zone ``i+1`` covers
    for zone ``i``), so a dead zone GPA's members reparent to the next
    rack instead of escalating straight to the root.
    """
    cluster = Cluster(seed=seed)
    topology = build_spine_leaf(
        cluster, racks=racks, nodes_per_rack=per, mgmt_node="mgmt"
    )
    sysprof = SysProf(
        cluster,
        SysProfConfig(
            eviction_interval=eviction_interval,
            forward_interval=forward_interval,
            stale_threshold=stale_threshold,
        ),
    )
    specs = [
        ZoneSpec(name=rack.name, gpa_node=rack.gpa_node,
                 members=list(rack.nodes))
        for rack in topology.racks
    ]
    if standbys and len(specs) > 1:
        for index, spec in enumerate(specs):
            spec.standby = specs[(index + 1) % len(specs)].name
    sysprof.install(zones=specs, gpa_node="mgmt")
    if synthetic:
        install_synthetic_load(sysprof, samples_per_window=8)
    sysprof.start()
    return cluster, sysprof


def test_zone_condenses_member_frames_for_root():
    cluster, sysprof = build_federated()
    cluster.run(until=2.0)
    zone = sysprof.federation.zone("r0")
    # Members' frames terminated at the zone, not the root.
    assert zone.records_received > 0
    assert sorted(zone.node_stats) == ["r0n0", "r0n1"]
    assert zone.forwards > 0
    assert zone.rows_forwarded > 0
    gpa = sysprof.gpa
    # The root sees only zone pseudo-nodes, each with merged sketches.
    assert sorted(gpa.node_stats) == ["zone:r0", "zone:r1"]
    assert gpa.decode_errors == 0
    merged = gpa.sketches.merged(request_class="rpc", metric="latency")
    assert merged.count > 0
    nodes = {key[0] for key in gpa.sketches.series}
    assert nodes == {"zone:r0", "zone:r1"}
    # Condensation: far fewer rows reach the root than entered the zones.
    zone_in = sum(z.records_received for z in sysprof.federation.all_zones())
    assert gpa.records_received < zone_in
    assert not gpa.stale_nodes(cluster.sim.now)


def test_zone_summary_rollup_is_count_weighted():
    cluster, sysprof = build_federated()
    cluster.run(until=2.0)
    gpa = sysprof.gpa
    rows = [r for r in gpa.class_summaries if r["node"] == "zone:r0"]
    assert rows
    zone = sysprof.federation.zone("r0")
    member_rows = [r for r in zone.class_summaries if r["node"].startswith("r0")]
    member_total = sum(r["count"] for r in member_rows)
    root_total = sum(r["count"] for r in rows)
    # The root trails the zone by at most the pending (unforwarded) window.
    assert 0 < root_total <= member_total
    pending = sum(
        acc["count"] for acc in zone._pending_classes.values()
    )
    assert root_total + pending == member_total
    # Count-weighted latency roll-up: the merged mean lies inside the
    # members' span.
    means = [r["mean_latency"] for r in member_rows]
    merged_mean = (
        sum(r["count"] * r["mean_latency"] for r in rows) / root_total
    )
    assert min(means) <= merged_mean <= max(means)


def test_zone_restart_resends_descriptors_both_tiers():
    """Satellite regression: killing a zone GPA must not wedge either
    side — member daemons re-send format descriptors to the reborn zone
    (its ingest registry died with it), and the zone's own publisher
    re-sends descriptors to the root on its fresh connection."""
    cluster, sysprof = build_federated()
    cluster.run(until=1.5)
    zone = sysprof.federation.zone("r0")
    gpa = sysprof.gpa
    daemon = sysprof.monitor("r0n0").daemon
    daemon_sends_before = daemon.publisher.format_sends
    zone_sends_before = zone.publisher.stats()["format_sends"]
    root_records_before = gpa.records_received
    zone.kill("test")
    cluster.run(until=2.5)
    zone.restart()
    cluster.run(until=5.0)
    assert zone.restarts == 1
    # Members reconnected and re-sent descriptors; the fresh registry
    # decoded everything.
    assert daemon.publisher.format_sends > daemon_sends_before
    assert zone.decode_errors == 0
    assert sorted(zone.node_stats) == ["r0n0", "r0n1"]
    # The zone's upward publisher re-sent descriptors too, and the root
    # kept decoding its rows.
    assert zone.publisher.stats()["format_sends"] > zone_sends_before
    assert gpa.decode_errors == 0
    assert gpa.records_received > root_records_before
    assert not gpa.stale_nodes(cluster.sim.now)


def test_zone_kill_degrades_only_that_zone():
    cluster, sysprof = build_federated()
    cluster.run(until=2.0)
    sysprof.federation.zone("r0").kill("test")
    cluster.run(until=4.5)
    stale = sysprof.gpa.stale_nodes(cluster.sim.now)
    assert set(stale) == {"zone:r0"}
    # The dead zone's own members are invisible to the root either way;
    # the surviving zone keeps reporting.
    assert "zone:r1" not in stale


def build_nested():
    """A 3-tier tree: zone ``inner`` (two leaves) under ``super``, which
    forwards to the root GPA on ``mgmt``."""
    cluster = Cluster(seed=9)
    for name in ("leafa", "leafb", "mid", "top", "mgmt"):
        cluster.add_node(name)
    sysprof = SysProf(
        cluster,
        SysProfConfig(eviction_interval=0.1, forward_interval=0.2),
    )
    spec = ZoneSpec(
        name="super", gpa_node="top", members=[],
        children=[ZoneSpec(name="inner", gpa_node="mid",
                           members=["leafa", "leafb"])],
    )
    sysprof.install(zones=[spec], gpa_node="mgmt")
    install_synthetic_load(sysprof, samples_per_window=4)
    sysprof.start()
    return cluster, sysprof


def test_nested_zones_forward_through_parent():
    cluster, sysprof = build_nested()
    cluster.run(until=2.0)
    inner = sysprof.federation.zone("inner")
    top = sysprof.federation.zone("super")
    assert sorted(inner.node_stats) == ["leafa", "leafb"]
    assert sorted(top.node_stats) == ["zone:inner"]
    assert sorted(sysprof.gpa.node_stats) == ["zone:super"]
    assert sysprof.gpa.decode_errors == 0
    assert top.children == ["inner"]
    assert sysprof.federation.root_candidates() == ["zone:super"]
    assert sysprof.federation.top_level() == [top]


def test_federation_tree_lookups():
    _, sysprof = build_federated()
    federation = sysprof.federation
    assert sorted(z.zone for z in federation.all_zones()) == ["r0", "r1"]
    assert sorted(federation.root_candidates()) == ["zone:r0", "zone:r1"]
    assert federation.locate_member("r1n1").zone == "r1"
    assert federation.locate_member("mgmt") is None
    with pytest.raises(ValueError):
        federation.add(federation.zone("r0"))


def test_tier_of_names_the_tier_holding_a_node():
    _, sysprof = build_federated()
    federation = sysprof.federation
    # A member's raw rows terminate at its zone GPA; the root holds only
    # the zone pseudo-nodes and anything outside every zone.
    assert sysprof.tier_of("r0n0") is federation.zone("r0")
    assert sysprof.tier_of("r1n1") is federation.zone("r1")
    assert sysprof.tier_of("zone:r0") is sysprof.gpa
    assert sysprof.tier_of("mgmt") is sysprof.gpa


def test_nested_zone_staleness_rule_fires_at_its_parent_zone():
    """A nested zone's heartbeat lands at its parent zone, which is where
    ``staleness(zone:inner)`` is measured: the rule fires once ``inner``'s
    GPA dies (measured at the root it read None and never fired)."""
    cluster, sysprof = build_nested()
    federation = sysprof.federation
    top = federation.zone("super")
    assert sysprof.tier_of("zone:inner") is top
    assert sysprof.tier_of("zone:super") is sysprof.gpa
    assert sysprof.tier_of("leafa") is federation.zone("inner")
    engine = DiagnosisEngine(sysprof, rules=["staleness(zone:inner) < 1s"])
    fired = []
    engine.add_listener(fired.append)
    cluster.sim.schedule(1.0, federation.zone("inner").kill, "test")
    cluster.run(until=4.0)
    assert "zone:inner" in top.stale_nodes(cluster.sim.now)
    assert [event["state"] for event in fired] == ["fire"]
    assert 1.0 < fired[0]["at"] < 3.0
    assert engine.rules[0].last_value > 1.0


def test_tier_of_a_flat_node_is_the_root():
    _, sysprof = build_monitored_pair()
    assert sysprof.tier_of("server") is sysprof.gpa


#: Each tier's ``stats()`` keys: the root's and a zone's (its publisher's
#: counters flattened in).  ``bench/rep.py`` reads some of them by name.
GPA_STATS_KEYS = {
    "records_received", "interactions", "class_summaries", "cpa_metrics",
    "syscall_summaries", "nodes_reporting", "frames_received",
    "decode_errors", "ingress_bytes", "sketch_rows", "sketch_series",
    "dumps_written", "queries_served", "restarts",
}
ZONE_STATS_KEYS = {
    "records_received", "interactions", "class_summaries", "nodes_reporting",
    "frames_received", "decode_errors", "ingress_bytes", "sketch_rows",
    "sketch_series", "sketch_merges", "forwards", "rows_forwarded",
    "forward_failures", "queries_served", "restarts",
    "bytes_published", "publishes", "frames_published", "format_sends",
    "send_errors", "connect_attempts", "reconnects", "backoff_skips",
    "endpoints_abandoned", "parent_link",
}


def test_tier_stats_key_sets():
    cluster, sysprof = build_federated()
    cluster.run(until=1.0)
    assert set(sysprof.gpa.stats()) == GPA_STATS_KEYS
    for zone in sysprof.federation.all_zones():
        assert set(zone.stats()) == ZONE_STATS_KEYS


def test_zone_name_must_fit_str16():
    cluster = Cluster(seed=1)
    cluster.add_node("a")
    hub = ChannelHub()
    with pytest.raises(ValueError):
        ZoneGpa("a-very-long-zone-name", cluster.node("a"), hub)


def test_zone_stats_expose_tier_counters():
    cluster, sysprof = build_federated()
    cluster.run(until=2.0)
    stats = sysprof.federation.zone("r0").stats()
    for key in ("records_received", "ingress_bytes", "sketch_merges",
                "forwards", "rows_forwarded", "bytes_published",
                "format_sends", "restarts"):
        assert key in stats
    assert stats["ingress_bytes"] > 0
    assert stats["bytes_published"] > 0
    # The root tier reports its ingress too (the bench's numerator).
    assert sysprof.gpa.stats()["ingress_bytes"] > 0


def _sketch_records(nodes, windows, seed=4):
    """Decoded ``sysprof.sketch`` records: one latency window per node
    per window index, all of class ``rpc``."""
    rng = random.Random(seed)
    names = [name for name, _kind in SKETCH_FORMAT[1]]
    records = []
    for window in range(windows):
        for node in nodes:
            sketch = QuantileSketch()
            for _ in range(16):
                sketch.add(rng.lognormvariate(-6.0, 1.0))
            row = sketch.to_row(node, "rpc", "latency", 0.1 * window,
                                0.1 * (window + 1))
            records.append(dict(zip(names, row)))
    return records


def _window_state(sketch):
    return (sorted(sketch.buckets.items()), sketch.count, sketch.zero_count,
            sketch.sum_value.hex(), sketch.min_value, sketch.max_value)


def test_zone_parses_each_member_sketch_row_once(monkeypatch):
    cluster = Cluster(seed=1)
    cluster.add_node("a")
    zone = ZoneGpa("z0", cluster.node("a"), ChannelHub())
    parses = []
    original = QuantileSketch.from_row.__func__

    def counted(cls, record, max_buckets=None):
        parses.append(record["node"])
        return original(cls, record, max_buckets=max_buckets)

    monkeypatch.setattr(QuantileSketch, "from_row", classmethod(counted))
    records = _sketch_records(["n0", "n1", "n2"], windows=3)
    zone.ingest("sysprof.sketch", records)
    # One from_row per row: the store's window feeds the pending rollup.
    assert len(parses) == len(records) == 9
    assert zone.sketches.rows_ingested == 9
    assert zone.sketch_merges == 8
    rollup = zone._pending_sketches[("rpc", "latency")][0]
    assert rollup.count == sum(record["count"] for record in records)


def test_zone_folds_only_the_sketch_rows_it_accepts():
    cluster = Cluster(seed=1)
    cluster.add_node("a")
    zone = ZoneGpa("z0", cluster.node("a"), ChannelHub())
    records = _sketch_records(["n0", "n1"], windows=2)
    refused = [dict(records[0], buckets="0:1,0:2"), dict(records[1], alpha=1.5)]
    zone.ingest("sysprof.sketch", refused + records)
    assert zone.decode_errors == 2
    assert zone.sketches.rows_ingested == len(records)
    assert zone.sketch_merges == len(records) - 1
    rollup = zone._pending_sketches[("rpc", "latency")][0]
    assert rollup.count == sum(record["count"] for record in records)


def test_zone_forward_leaves_stored_windows_unchanged():
    """The pending rollup must not share a sketch with the store: merging
    more rows of the same key into it, and collapsing it to fit the
    forwarded row, would otherwise rewrite the first stored window."""
    cluster, sysprof = build_federated()
    zone = sysprof.federation.zone("r0")
    ingested = []
    ingest = zone.ingest

    def recording(format_name, records):
        if format_name == "sysprof.sketch":
            ingested.extend(dict(record) for record in records)
        return ingest(format_name, records)

    zone.ingest = recording
    cluster.run(until=2.0)
    assert zone.forwards > 0 and zone.sketch_merges > 0
    expected = {}
    for record in ingested:
        key = (record["node"], record["request_class"], record["metric"])
        expected.setdefault(key, []).append(
            _window_state(QuantileSketch.from_row(record))
        )
    stored = {
        key: [_window_state(sketch) for _end, sketch in windows]
        for key, windows in zone.sketches.series.items()
    }
    assert stored == {
        key: states[-zone.sketches.history:] for key, states in expected.items()
    }

"""ParentLink reparenting plus the forward-path data-loss regressions."""

import pytest

from repro.cluster import Cluster
from repro.core import ParentLink, ZoneSpec
from repro.core.channels import ChannelHub
from repro.core.federation import ROOT_PREFIX, zone_channel_prefix
from repro.core.publisher import ChannelPublisher
from repro.observability.sketches import QuantileSketch
from tests.core.test_federation import build_federated


def _drain(gen):
    """Run a ParentLink.check() generator to completion."""
    if gen is None:
        return
    for _ in gen:
        pass


class _Ctx:
    """Minimal publish-cycle context for driving check() off-cluster."""

    def __init__(self, now):
        self.now = now


def _link(loss_failures=3, lease_timeout=1.0, standby="r1"):
    cluster = Cluster(seed=3)
    cluster.add_node("pub")
    hub = ChannelHub()
    publisher = ChannelPublisher(
        cluster.node("pub"), hub, channel_prefix=zone_channel_prefix("r0")
    )
    events = []
    link = ParentLink(
        "pub", publisher, hub,
        primary_prefix=zone_channel_prefix("r0"),
        standby_prefix=zone_channel_prefix(standby) if standby else None,
        standby_zone=standby,
        loss_failures=loss_failures, lease_timeout=lease_timeout,
        on_reparent=lambda zone: events.append(("reparent", zone)),
        on_return=lambda: events.append(("return", None)),
    )
    publisher.parent_link = link
    return link, publisher, events


def test_parent_link_reparents_after_retry_budget():
    link, publisher, events = _link(loss_failures=3)
    link.note_failure(0.1)
    link.note_failure(0.2)
    assert link.state == "primary"
    assert publisher.channel_prefix == zone_channel_prefix("r0")
    link.note_failure(0.3)
    assert link.state == "failover"
    assert publisher.channel_prefix == zone_channel_prefix("r1")
    assert events == [("reparent", "r1")]
    assert link.stats()["failed_over"] == 1
    assert link.reparents == 1


def test_parent_link_escalates_to_root_when_standby_dies():
    link, publisher, events = _link(loss_failures=2)
    for at in (0.1, 0.2):
        link.note_failure(at)
    assert publisher.channel_prefix == zone_channel_prefix("r1")
    # The standby is dead too: the next budget exhaustion climbs the
    # ladder to the root prefix instead of wrapping around.
    for at in (0.3, 0.4):
        link.note_failure(at)
    assert publisher.channel_prefix == ROOT_PREFIX
    assert link.escalations == 1
    assert events == [("reparent", "r1"), ("reparent", None)]
    # No further rung: extra failures stay on the root.
    for at in (0.5, 0.6):
        link.note_failure(at)
    assert publisher.channel_prefix == ROOT_PREFIX
    assert link.escalations == 1


def test_parent_link_lease_timeout_fires_before_retry_budget():
    link, publisher, _ = _link(loss_failures=50, lease_timeout=0.5)
    link.note_failure(1.0)
    _drain(link.check(_Ctx(1.2)))
    assert link.state == "primary"
    _drain(link.check(_Ctx(1.6)))
    assert link.state == "failover"
    assert publisher.channel_prefix == zone_channel_prefix("r1")
    assert link.events[0]["reason"] == "lease-timeout"


def test_parent_link_success_resets_loss_state():
    link, publisher, _ = _link(loss_failures=3)
    link.note_failure(0.1)
    link.note_failure(0.2)
    link.note_success(0.3)
    # A renewed lease disarms the timeout however late the next check is.
    _drain(link.check(_Ctx(10.0)))
    assert link.state == "primary"
    # The consecutive-failure budget restarted from zero too.
    link.note_failure(10.1)
    link.note_failure(10.2)
    assert link.state == "primary"
    assert publisher.channel_prefix == zone_channel_prefix("r0")


def test_top_level_link_enters_probe_only_failover():
    """A zone whose parent *is* the root has no fallback rung — the link
    still fails over (probe-only) so the abandoned endpoint is revived
    when the root comes back, instead of staying black forever."""
    cluster = Cluster(seed=3)
    cluster.add_node("pub")
    hub = ChannelHub()
    publisher = ChannelPublisher(cluster.node("pub"), hub,
                                 channel_prefix=ROOT_PREFIX)
    link = ParentLink("pub", publisher, hub, primary_prefix=ROOT_PREFIX,
                      loss_failures=2)
    for at in (0.1, 0.2):
        link.note_failure(at)
    assert link.state == "failover"
    assert publisher.channel_prefix == ROOT_PREFIX
    assert link.events[0]["event"] == "probe-only"


def test_zone_spec_optional_fields_default_none():
    """Regression: ``forward_interval`` is Optional[float] (it used to be
    annotated as a bare float with a None default)."""
    spec = ZoneSpec(name="a", gpa_node="b")
    assert spec.forward_interval is None
    assert spec.standby is None
    fields = ZoneSpec.__dataclass_fields__
    assert "Optional" in str(fields["forward_interval"].type)
    assert "Optional" in str(fields["standby"].type)


def test_retain_remerges_undelivered_windows():
    """Bugfix regression: a failed upward publish re-merges the detached
    rollup into the (possibly refilled) pending state — counts add,
    windows extend, sketches merge."""
    cluster, sysprof = build_federated(synthetic=False)
    zone = sysprof.federation.zone("r0")

    def summary(count, start, end):
        return {"count": count, "latency": count * 2.0, "kernel": 0.0,
                "user": 0.0, "wait": 0.0, "bytes": count * 10,
                "start": start, "end": end}

    zone._pending_classes = {"rpc": summary(3, 1.0, 1.5)}
    zone._retain("sysprof.class_summary", {"rpc": summary(5, 0.2, 0.9),
                                           "web": summary(2, 0.5, 0.6)})
    assert zone._pending_classes["rpc"]["count"] == 8
    assert zone._pending_classes["rpc"]["latency"] == 16.0
    assert zone._pending_classes["rpc"]["start"] == 0.2
    assert zone._pending_classes["rpc"]["end"] == 1.5
    assert zone._pending_classes["web"]["count"] == 2

    fresh = QuantileSketch()
    fresh.add(0.001)
    held = QuantileSketch()
    held.add(0.002)
    held.add(0.003)
    zone._pending_sketches = {("rpc", "latency"): [fresh, 1.0, 1.5]}
    zone._retain("sysprof.sketch", {("rpc", "latency"): [held, 0.2, 0.9],
                                    ("web", "latency"): [held, 0.1, 0.4]})
    merged = zone._pending_sketches[("rpc", "latency")]
    assert merged[0].count == 3
    assert merged[1:] == [0.2, 1.5]
    assert zone._pending_sketches[("web", "latency")][0].count == 2


def test_dead_member_leaves_heartbeat_sums():
    """Bugfix regression: a crashed member's final nodestats record used
    to inflate the zone heartbeat's summed resource fields forever."""
    cluster, sysprof = build_federated(stale_threshold=0.5)
    cluster.run(until=1.0)
    zone = sysprof.federation.zone("r0")
    assert set(zone._member_last) == {"r0n0", "r0n1"}
    sysprof.monitor("r0n0").daemon.kill("test")
    cluster.run(until=2.5)
    assert set(zone._member_last) == {"r0n1"}
    # The root's zone heartbeat dropped the dead member's cumulative CPU:
    # per-member cpu_busy only ever grows, so without eviction the summed
    # series is monotone — the eviction shows up as a dip.
    history = list(sysprof.gpa.node_stats["zone:r0"])
    assert any(
        later["cpu_busy"] < earlier["cpu_busy"]
        for earlier, later in zip(history, history[1:])
    )


def test_stop_flushes_pending_rollups():
    """Bugfix regression: the forwarder only observed ``_stopped`` after
    its sleep, so rows condensed since the last interval silently died
    with a clean shutdown.  stop() now flushes them once."""
    cluster, sysprof = build_federated()
    cluster.run(until=1.62)  # mid-interval: pending refilled, not forwarded
    zone = sysprof.federation.zone("r0")
    assert zone._pending_classes, "test needs a non-empty pending window"
    # Stop members and zones at the same instant: the members emit no
    # further windows, and the zone's stop() flushes what it holds.
    for monitor in sysprof.monitors.values():
        monitor.daemon.stop()
    sysprof.federation.stop()
    cluster.run(until=2.2)
    member_total = sum(r["count"] for r in zone.class_summaries)
    root_total = sum(
        r["count"] for r in sysprof.gpa.class_summaries
        if r["node"] == "zone:r0"
    )
    assert not zone._pending_classes
    assert root_total == member_total


def test_forward_failures_counted_only_with_live_subscribers():
    """forward_failures means "a parent existed and the window missed
    it" — a fault-free run must never count one."""
    cluster, sysprof = build_federated()
    cluster.run(until=2.0)
    for zone in sysprof.federation.all_zones():
        stats = zone.stats()
        assert stats["forward_failures"] == 0
        assert "parent_link" in stats
        assert stats["parent_link"]["failed_over"] == 0


def test_unknown_standby_zone_rejected_at_install():
    from repro.cluster import build_spine_leaf
    from repro.core import SysProf, SysProfConfig

    cluster = Cluster(seed=13)
    topology = build_spine_leaf(cluster, racks=2, nodes_per_rack=2,
                                mgmt_node="mgmt")
    sysprof = SysProf(cluster, SysProfConfig())
    specs = [ZoneSpec(name=rack.name, gpa_node=rack.gpa_node,
                      members=list(rack.nodes)) for rack in topology.racks]
    specs[0].standby = "no-such-zone"
    with pytest.raises(ValueError):
        sysprof.install(zones=specs, gpa_node="mgmt")

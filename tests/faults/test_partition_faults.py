"""parent_partition faults: uplink retention and member reparenting."""

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.faults.schedule import ScheduleError
from tests.core.test_federation import build_federated


def test_parent_partition_scope_validated():
    schedule = FaultSchedule().parent_partition(1.0, "r0", scope="gpa")
    schedule.validate()
    with pytest.raises(ScheduleError):
        FaultSchedule().parent_partition(1.0, "r0", scope="bogus")
    with pytest.raises(ScheduleError):
        FaultSchedule().add(1.0, "parent_partition")  # zone target required


def test_parent_partition_window_scripts_both_sides():
    schedule = FaultSchedule().parent_partition_window(1.0, 2.0, "r0")
    kinds = [e.kind for e in schedule.events()]
    assert kinds == ["parent_partition", "heal"]
    assert schedule.events()[0].params["scope"] == "uplink"
    # Round-trips through the pure-data serialization.
    clone = FaultSchedule.from_dict(schedule.to_dict())
    assert [e.kind for e in clone.events()] == kinds


def test_uplink_partition_retains_rollups_until_heal():
    """Cut the whole r0 subtree off from the root: members keep feeding
    their zone GPA, upward forwards fail, and the retention path holds
    every condensation window until the fabric heals — conservation of
    class-summary counts proves zero rows lost."""
    cluster, sysprof = build_federated()
    injector = FaultInjector(cluster, sysprof=sysprof)
    injector.arm(
        FaultSchedule().parent_partition_window(1.0, 2.0, "r0", scope="uplink")
    )
    cluster.run(until=2.5)
    zone = sysprof.federation.zone("r0")
    # Mid-partition: ingest continues, upward delivery does not.
    assert zone.forward_failures > 0
    assert zone._pending_classes
    link = zone.publisher.parent_link
    assert link.stats()["failed_over"] == 1
    assert link.events[0]["event"] == "probe-only"
    cluster.run(until=6.0)
    # Healed: the link returned and the backlog drained to the root.
    assert link.state == "primary"
    assert link.returns == 1
    member_total = sum(r["count"] for r in zone.class_summaries)
    root_total = sum(
        r["count"] for r in sysprof.gpa.class_summaries
        if r["node"] == "zone:r0"
    )
    pending = sum(acc["count"] for acc in zone._pending_classes.values())
    assert root_total + pending == member_total
    assert "zone:r0" not in sysprof.gpa.stale_nodes(cluster.sim.now)


def test_gpa_partition_reparents_members_to_standby():
    """Isolate r0's GPA node: members lose their parent, fail over to
    the standby zone r1, and return once the fabric heals — with the
    adoption ledger tracking (and then releasing) them."""
    cluster, sysprof = build_federated(standbys=True)
    injector = FaultInjector(cluster, sysprof=sysprof)
    injector.arm(
        FaultSchedule().parent_partition_window(1.0, 2.0, "r0", scope="gpa")
    )
    cluster.run(until=2.5)
    federation = sysprof.federation
    assert federation.adopted == {"r0n0": "r1", "r0n1": "r1"}
    assert federation.adopted_members("r1") == ["r0n0", "r0n1"]
    standby = federation.zone("r1")
    # The standby tier really holds the adoptees' telemetry.
    assert "r0n0" in standby.node_stats
    assert "r0n0" in standby._member_last
    for member in ("r0n0", "r0n1"):
        daemon = sysprof.monitor(member).daemon
        assert daemon.publisher.channel_prefix == "sysprof@r1/"
        assert daemon.stats()["parent_link"]["failed_over"] == 1
    cluster.run(until=6.0)
    # Healed: everyone is back on the primary and the ledger is clean.
    assert federation.adopted == {}
    for member in ("r0n0", "r0n1"):
        daemon = sysprof.monitor(member).daemon
        assert daemon.publisher.channel_prefix == "sysprof@r0/"
        assert daemon.stats()["parent_link"]["returns"] == 1
    # The standby released the adoptees: no ghost staleness or inflated
    # heartbeat sums linger in r1.
    assert "r0n0" not in standby.node_stats
    assert "r0n0" not in standby._member_last
    assert set(standby._member_last) == {"r1n0", "r1n1"}
    assert not sysprof.gpa.stale_nodes(cluster.sim.now)


def test_gpa_partition_without_standby_escalates_to_root():
    """No standby configured: orphaned members escalate straight to the
    root prefix, and the root sees their raw rows while they are away."""
    cluster, sysprof = build_federated()
    injector = FaultInjector(cluster, sysprof=sysprof)
    injector.arm(
        FaultSchedule().parent_partition_window(1.0, 2.0, "r0", scope="gpa")
    )
    cluster.run(until=2.5)
    federation = sysprof.federation
    assert federation.root_adopted() == ["r0n0", "r0n1"]
    assert "r0n0" in sysprof.gpa.node_stats
    assert sysprof.monitor("r0n0").daemon.publisher.channel_prefix == "sysprof/"
    cluster.run(until=6.0)
    assert federation.adopted == {}
    assert sysprof.monitor("r0n0").daemon.publisher.channel_prefix == "sysprof@r0/"
    # The root released the returned members — their direct streams must
    # not rot into permanent staleness at the top of the tree.
    assert not sysprof.gpa.stale_nodes(cluster.sim.now)


@pytest.mark.parametrize("standbys", [True, False], ids=["standby", "root"])
def test_tier_of_follows_a_reparented_member(standbys):
    """While r0's members are failed over, their raw rows — and so their
    staleness — live at the adopter: the standby zone r1, or the root
    when no standby is configured.  After the heal they are r0's again."""
    cluster, sysprof = build_federated(standbys=standbys)
    injector = FaultInjector(cluster, sysprof=sysprof)
    injector.arm(
        FaultSchedule().parent_partition_window(1.0, 2.0, "r0", scope="gpa")
    )
    cluster.run(until=2.5)
    federation = sysprof.federation
    adopter = federation.zone("r1") if standbys else sysprof.gpa
    for member in ("r0n0", "r0n1"):
        assert sysprof.tier_of(member) is adopter
        assert adopter.staleness(member, cluster.sim.now) < 1.0
    assert sysprof.tier_of("r1n0") is federation.zone("r1")
    cluster.run(until=6.0)
    assert federation.adopted == {}
    assert sysprof.tier_of("r0n0") is federation.zone("r0")


def test_reparented_stream_does_not_corrupt_sibling_decode():
    """Regression for the shared-decoder bug: a reparented daemon's
    format descriptors land on the root alongside a zone uplink's, and
    each stream's ids must stay private to its connection."""
    cluster, sysprof = build_federated()
    injector = FaultInjector(cluster, sysprof=sysprof)
    injector.arm(
        FaultSchedule().parent_partition_window(1.0, 2.0, "r0", scope="gpa")
    )
    cluster.run(until=6.0)
    assert sysprof.gpa.decode_errors == 0
    # The surviving zone's rollups kept landing throughout.
    assert "zone:r1" not in sysprof.gpa.stale_nodes(cluster.sim.now)

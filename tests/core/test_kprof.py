"""Kprof: subscriptions, costs, predicates, masking."""

import pytest

from repro.cluster import Cluster, NodeClock
from repro.core.kprof import (
    Kprof,
    all_of,
    exclude_port_range,
    field_predicate,
    pid_predicate,
)
from repro.ossim import tracepoints as tp


@pytest.fixture
def node():
    return Cluster(seed=10).add_node("n1", clock=NodeClock(offset=2.0))


@pytest.fixture
def kprof(node):
    return Kprof(node.kernel).attach()


def test_attach_installs_tracepoints(node, kprof):
    assert node.kernel.tracepoints is kprof
    kprof.detach()
    assert node.kernel.tracepoints is not kprof


def test_disabled_event_costs_nothing(kprof):
    assert not kprof.enabled(tp.SYSCALL_ENTRY)
    assert kprof.cost(tp.SYSCALL_ENTRY) == kprof.costs.probe_disabled


def test_subscription_enables_and_costs(kprof):
    kprof.subscribe([tp.SYSCALL_ENTRY], lambda e: None, cost=1e-6)
    assert kprof.enabled(tp.SYSCALL_ENTRY)
    assert kprof.cost(tp.SYSCALL_ENTRY) == pytest.approx(
        kprof.costs.probe_fire + 1e-6
    )


def test_cost_sums_multiple_subscribers(kprof):
    kprof.subscribe([tp.SYSCALL_ENTRY], lambda e: None, cost=1e-6)
    kprof.subscribe([tp.SYSCALL_ENTRY], lambda e: None, cost=2e-6)
    assert kprof.cost(tp.SYSCALL_ENTRY) == pytest.approx(
        kprof.costs.probe_fire + 3e-6
    )


def test_fire_delivers_event_with_local_timestamp(node, kprof):
    events = []
    kprof.subscribe([tp.SYSCALL_ENTRY], events.append)
    node.sim.run(until=1.0)
    kprof.fire(tp.SYSCALL_ENTRY, pid=7, call="read")
    assert len(events) == 1
    event = events[0]
    assert event.etype == tp.SYSCALL_ENTRY
    assert event.node == "n1"
    assert event["pid"] == 7
    assert event.ts == pytest.approx(3.0)  # sim 1.0 + offset 2.0


def test_fire_with_explicit_sim_ts(node, kprof):
    events = []
    kprof.subscribe([tp.NET_RX_DRIVER], events.append)
    kprof.fire(tp.NET_RX_DRIVER, sim_ts=5.0)
    assert events[0].ts == pytest.approx(7.0)


def test_unsubscribe_disables(kprof):
    sub = kprof.subscribe([tp.SYSCALL_ENTRY], lambda e: None)
    kprof.unsubscribe(sub)
    assert not kprof.enabled(tp.SYSCALL_ENTRY)


def test_event_class_expansion(kprof):
    kprof.subscribe(["network"], lambda e: None)
    for etype in tp.NETWORK_EVENTS:
        assert kprof.enabled(etype)
    assert not kprof.enabled(tp.FS_READ)


def test_mask_overrides_subscription(kprof):
    events = []
    kprof.subscribe([tp.SYSCALL_ENTRY], events.append)
    kprof.mask([tp.SYSCALL_ENTRY])
    assert not kprof.enabled(tp.SYSCALL_ENTRY)
    assert kprof.cost(tp.SYSCALL_ENTRY) == kprof.costs.probe_disabled
    kprof.fire(tp.SYSCALL_ENTRY, pid=1)
    assert events == []
    kprof.unmask([tp.SYSCALL_ENTRY])
    kprof.fire(tp.SYSCALL_ENTRY, pid=1)
    assert len(events) == 1


def test_predicate_suppresses_delivery(kprof):
    events = []
    kprof.subscribe(
        [tp.SYSCALL_ENTRY], events.append, predicate=pid_predicate([42])
    )
    kprof.fire(tp.SYSCALL_ENTRY, pid=41)
    kprof.fire(tp.SYSCALL_ENTRY, pid=42)
    assert [event["pid"] for event in events] == [42]
    assert kprof.events_suppressed == 1


def test_exclude_port_range_predicate():
    keep = exclude_port_range(9100, 9199)

    class FakeEvent(dict):
        def get(self, *args):
            return dict.get(self, *args)

    assert keep(FakeEvent(src_port=80, dst_port=443))
    assert not keep(FakeEvent(src_port=9150, dst_port=80))
    assert not keep(FakeEvent(src_port=80, dst_port=9100))
    assert keep(FakeEvent(src_port=80)) and keep(FakeEvent())
    assert not keep(FakeEvent(dst_port=9199))


def test_field_predicate_and_conjunction(kprof):
    events = []
    predicate = all_of(
        field_predicate("call", ["read"]), pid_predicate([1, 2])
    )
    kprof.subscribe([tp.SYSCALL_ENTRY], events.append, predicate=predicate)
    kprof.fire(tp.SYSCALL_ENTRY, pid=1, call="read")
    kprof.fire(tp.SYSCALL_ENTRY, pid=1, call="write")
    kprof.fire(tp.SYSCALL_ENTRY, pid=3, call="read")
    assert len(events) == 1


def test_emit_delivers_what_fire_delivers():
    """``emit`` with a payload dict delivers the same events and counts
    as ``fire`` with those fields as keywords, and shares the dict."""

    def monitored():
        node = Cluster(seed=10).add_node("n1", clock=NodeClock(offset=2.0))
        kprof = Kprof(node.kernel).attach()
        seen = []
        kprof.subscribe(tp.NETWORK_EVENTS, seen.append)
        kprof.subscribe(
            [tp.NET_RX_IP], seen.append, predicate=exclude_port_range(9100, 9199)
        )
        node.sim.run(until=1.0)
        return kprof, seen

    payloads = [
        (tp.NET_RX_DRIVER, 0.5, {"src_port": 80, "dst_port": 9150, "size": 10}),
        (tp.NET_RX_IP, 0.75, {"src_port": 80, "dst_port": 9150, "size": 10}),
        (tp.NET_RX_IP, None, {"src_port": 80, "dst_port": 443, "size": 20}),
        (tp.SYSCALL_ENTRY, None, {"pid": 1}),
    ]
    fired, fired_seen = monitored()
    emitted, emitted_seen = monitored()
    for etype, sim_ts, fields in payloads:
        fired.fire(etype, sim_ts=sim_ts, **fields)
        emitted.emit(etype, sim_ts, fields)

    def rows(events):
        return [(e.etype, e.ts, e.node, e.fields) for e in events]

    assert rows(emitted_seen) == rows(fired_seen)
    assert len(emitted_seen) == 4
    assert emitted.stats() == fired.stats()
    assert emitted.stats()["suppressed"] == 1
    assert emitted_seen[0].fields is payloads[0][2]


def test_stats_shape(kprof):
    kprof.subscribe([tp.SYSCALL_ENTRY], lambda e: None)
    kprof.fire(tp.SYSCALL_ENTRY, pid=1)
    stats = kprof.stats()
    assert stats["fired"] == {tp.SYSCALL_ENTRY: 1}
    assert tp.SYSCALL_ENTRY in stats["subscribed_types"]


def test_fired_equals_delivered_plus_suppressed(kprof):
    """Per-attempt accounting: every (event, subscription) attempt is
    either delivered or suppressed, never double- or un-counted."""
    seen = []
    kprof.subscribe([tp.SYSCALL_ENTRY], seen.append)
    kprof.subscribe(
        [tp.SYSCALL_ENTRY], seen.append, predicate=pid_predicate([42])
    )
    kprof.fire(tp.SYSCALL_ENTRY, pid=41)  # one delivered, one suppressed
    kprof.fire(tp.SYSCALL_ENTRY, pid=42)  # two delivered
    stats = kprof.stats()
    assert stats["fired"] == {tp.SYSCALL_ENTRY: 4}
    assert stats["delivered"] == 3
    assert stats["suppressed"] == 1
    assert len(seen) == 3


def test_all_predicates_reject_without_building_event(kprof, monkeypatch):
    """Fields-only predicates reject on the raw payload dict; when every
    subscriber rejects, no MonEvent (or clock read) is ever built."""
    kprof.subscribe(
        [tp.SYSCALL_ENTRY], lambda e: None, predicate=pid_predicate([42])
    )

    def boom(*_args):
        raise AssertionError("MonEvent built for a fully-suppressed fire")

    monkeypatch.setattr(kprof, "_make_event", boom)
    kprof.fire(tp.SYSCALL_ENTRY, pid=7)
    assert kprof.events_suppressed == 1
    assert kprof.events_delivered == 0


def test_opaque_predicate_still_gets_monevent(kprof):
    """Hand-written predicates (no fields_only flag) see the MonEvent."""
    seen = []

    def wants_node(event):
        return event.node == "n1"

    kprof.subscribe([tp.SYSCALL_ENTRY], seen.append, predicate=wants_node)
    kprof.fire(tp.SYSCALL_ENTRY, pid=7)
    assert len(seen) == 1


def test_helper_predicates_are_fields_only():
    assert pid_predicate([1]).fields_only
    assert exclude_port_range(1, 2).fields_only
    assert field_predicate("call", ["read"]).fields_only
    assert all_of(pid_predicate([1]), field_predicate("x", [1])).fields_only
    assert not all_of(pid_predicate([1]), lambda e: True).fields_only


def test_unsubscribe_during_fire_keeps_snapshot(kprof):
    """Copy-on-write: mutating subscriptions mid-delivery affects the
    *next* fire, not the one in flight."""
    seen = []
    sub_b = kprof.subscribe([tp.SYSCALL_ENTRY], lambda e: seen.append("b"))

    def kill_b(_event):
        seen.append("a")
        kprof.unsubscribe(sub_b)

    kprof.subscribe([tp.SYSCALL_ENTRY], kill_b)
    # NB: kill_b was subscribed after sub_b, so "b" delivers first; the
    # second event must not reach b at all.
    kprof.fire(tp.SYSCALL_ENTRY, pid=1)
    kprof.fire(tp.SYSCALL_ENTRY, pid=1)
    assert seen == ["b", "a", "a"]
    kprof.stats()  # invariant still holds after mid-fire mutation

"""Calendar-queue event store: window mechanics and slot recycling.

The calendar queue is the engine's only future-event store; its dispatch
order is pinned against stored golden digests by
``test_dispatch_order_matches_golden``.  These tests pin the remaining
load-bearing claims: overflow spills migrate without ever splitting a
tick, and the recycled slot columns can never be corrupted by a stale
handle.
"""

import random

import pytest

from repro.sim import SimError, Simulator
from repro.sim.engine import CalendarQueue, DEFAULT_CALENDAR_WIDTH


def test_far_future_timers_fire_in_order():
    """Timers far beyond the calendar horizon (overflow spills) still fire
    in exact (time, seq) order after the window jumps forward."""
    sim = Simulator()
    width = DEFAULT_CALENDAR_WIDTH
    fired = []
    rng = random.Random(5)
    delays = [rng.uniform(0.0, 50_000.0) * width for _ in range(500)]
    # Duplicate a few exact times so seq has to break ties.
    delays += delays[:20]
    for index, delay in enumerate(delays):
        sim.schedule(delay, fired.append, (delay, index))
    sim.run()
    assert fired == sorted(fired, key=lambda item: (item[0], item[1]))
    stats = sim.stats()
    assert stats["store_spills"] > 0  # overflow heap was exercised
    assert stats["store_pulls"] > 0  # and migrated into the window


def test_same_tick_entries_never_split_across_window_jump():
    """Entries in one tick must all dispatch from the active bucket even
    when the window jumps to reach them."""
    sim = Simulator()
    width = DEFAULT_CALENDAR_WIDTH
    fired = []
    far = 100_000 * width  # far beyond the initial horizon
    sim.schedule(far + 0.2 * width, fired.append, "b")
    sim.schedule(far + 0.1 * width, fired.append, "a")
    sim.schedule(far + 0.2 * width, fired.append, "c")  # same tick as "b"
    sim.schedule(0.0, fired.append, "now")
    sim.run()
    assert fired == ["now", "a", "b", "c"]


def test_calendar_slot_columns_grow_and_recycle():
    store = CalendarQueue()
    sim = Simulator()
    sim._store = store
    initial = len(store._fns)
    handles = [
        sim.schedule(1.0 + i * 1e-4, lambda: None) for i in range(initial * 2)
    ]
    assert len(store._fns) >= initial * 2
    assert store.size == len(handles)
    sim.run()
    assert store.size == 0
    assert len(store._free) == len(store._fns)  # every slot came back


def test_cancelled_calendar_entries_purged_lazily():
    sim = Simulator()
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(300)]
    fired = []
    sim.schedule(500.0, fired.append, "live")
    for handle in handles[:250]:
        handle.cancel()
        assert handle.cancelled
    stats = sim.stats()
    assert stats["store_purges"] >= 1
    assert stats["store_size"] <= 300 - 150
    sim.run()
    assert fired == ["live"]


def test_stale_slot_handle_cannot_cancel_recycled_slot():
    """Regression companion to the pooled-entry guard: once a calendar
    slot is freed and re-used, the old handle's generation mismatches."""
    sim = Simulator()
    fired = []
    stale = sim.schedule(1.0, fired.append, "first")
    sim.run()
    assert fired == ["first"]
    fresh = sim.schedule(1.0, fired.append, "second")
    # The freed slot is recycled for the new entry.
    assert fresh._slot == stale._slot
    stale.cancel()  # generation mismatch: must be a no-op
    assert not stale.cancelled
    sim.run()
    assert fired == ["first", "second"]


def test_cancel_after_dispatch_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.run()
    handle.cancel()
    assert not handle.cancelled
    assert fired == ["x"]


def test_zero_delay_custom_priority_enters_store_in_order():
    """schedule(0, priority=outside the lane bands) routes to the store at
    the *current* tick — the tick <= active_tick push path."""
    sim = Simulator()
    order = []

    def outer():
        sim.schedule(0.0, order.append, "late", priority=7)
        sim.call_soon(order.append, "lane")
        sim.schedule(0.0, order.append, "late2", priority=7)

    sim.schedule(2.0, outer)
    sim.run()
    assert order == ["lane", "late", "late2"]


def test_invalid_calendar_parameters_rejected():
    with pytest.raises(SimError):
        CalendarQueue(width=0.0)
    with pytest.raises(SimError):
        CalendarQueue(nbuckets=0)


def test_simulator_stats_shape():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.call_soon(lambda: None)
    stats = sim.stats()
    assert stats["events_scheduled"] == 2
    assert stats["lane_depth_normal"] == 1
    assert stats["store_size"] == 1
    sim.run()
    stats = sim.stats()
    assert stats["store_size"] == 0
    assert stats["lane_depth_normal"] == 0
    for key in ("pool_hits", "pool_misses", "store_spills", "store_purges"):
        assert key in stats

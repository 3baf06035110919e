"""Calendar-queue event store: window mechanics and the stats shape.

The calendar queue holds every timed and zero-delay entry; its dispatch
order is pinned against stored golden digests by
``test_dispatch_order_matches_golden``.  These tests pin the remaining
load-bearing claims: overflow spills migrate without ever splitting a
tick, and a zero-delay push lands in the active bucket in seq order even
while that bucket holds a later tick.
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


def test_zero_delay_push_enters_active_bucket_in_seq_order():
    """A zero-delay push while the active bucket holds a later tick takes
    the ``tick <= active_tick`` path and still runs first, in seq order."""
    sim = Simulator()
    order = []

    def outer():
        store = sim._store
        # Only the 5.0 timer is left, so its later tick is the active one.
        assert store._active_tick > int(sim.now * store._inv_width)
        sim.call_soon(order.append, "soon")
        sim.schedule(0.0, order.append, "zero")
        sim.call_soon(order.append, "soon2")

    sim.schedule(2.0, outer)
    sim.schedule(5.0, order.append, "later")
    sim.run()
    assert order == ["soon", "zero", "soon2", "later"]


def test_invalid_calendar_parameters_rejected():
    with pytest.raises(SimError):
        CalendarQueue(width=0.0)
    with pytest.raises(SimError):
        CalendarQueue(nbuckets=0)


def test_simulator_stats_shape():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.call_soon(lambda: None)
    sim._soon1(lambda _arg: None, None)
    stats = sim.stats()
    assert set(stats) == {
        "events_scheduled", "delivery_depth", "store_size", "store_buckets",
        "store_overflow", "store_spills", "store_pulls", "store_advances",
    }
    assert stats["events_scheduled"] == 3
    assert stats["delivery_depth"] == 1
    assert stats["store_size"] == 2
    sim.run()
    stats = sim.stats()
    assert stats["store_size"] == 0
    assert stats["delivery_depth"] == 0

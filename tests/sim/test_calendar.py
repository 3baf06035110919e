"""Timer heap: far-future and same-time ordering, and the stats shape.

The timer heap holds every timed and zero-delay entry; its dispatch
order is pinned against stored golden digests by
``test_dispatch_order_matches_golden``.  These tests pin the remaining
load-bearing claims: timers far in the future fire in exact
``(time, seq)`` order, same-time entries keep their seq order, and a
zero-delay push behind a later pending timer still runs first.
"""

import random

from repro.sim import Simulator

#: One millisecond of simulated time, the OS model's timer scale.
MS = 1e-3


def test_far_future_timers_fire_in_order():
    """Timers spread over a long horizon fire in exact (time, seq) order."""
    sim = Simulator()
    fired = []
    rng = random.Random(5)
    delays = [rng.uniform(0.0, 50_000.0) * MS for _ in range(500)]
    # Duplicate a few exact times so seq has to break ties.
    delays += delays[:20]
    for index, delay in enumerate(delays):
        sim.schedule(delay, fired.append, (delay, index))
    sim.run()
    assert fired == sorted(fired, key=lambda item: (item[0], item[1]))


def test_same_time_far_future_entries_fire_in_seq_order():
    """Entries at one far-future time dispatch in seq order, after an
    earlier entry pushed later."""
    sim = Simulator()
    fired = []
    far = 100_000 * MS
    sim.schedule(far + 0.2 * MS, fired.append, "b")
    sim.schedule(far + 0.1 * MS, fired.append, "a")
    sim.schedule(far + 0.2 * MS, fired.append, "c")  # same time as "b"
    sim.schedule(0.0, fired.append, "now")
    sim.run()
    assert fired == ["now", "a", "b", "c"]


def test_zero_delay_push_behind_later_timer_runs_in_seq_order():
    """A zero-delay push while only a later timer is pending still runs
    first, in seq order with the delivery lane."""
    sim = Simulator()
    order = []

    def outer():
        # Only the 5.0 timer is left pending.
        assert sim.stats()["store_size"] == 1
        sim.call_soon(order.append, "soon")
        sim.schedule(0.0, order.append, "zero")
        sim.call_soon(order.append, "soon2")

    sim.schedule(2.0, outer)
    sim.schedule(5.0, order.append, "later")
    sim.run()
    assert order == ["soon", "zero", "soon2", "later"]


def test_simulator_stats_shape():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.call_soon(lambda: None)
    sim._soon1(lambda _arg: None, None)
    stats = sim.stats()
    assert set(stats) == {"events_scheduled", "delivery_depth", "store_size"}
    assert stats["events_scheduled"] == 3
    assert stats["delivery_depth"] == 1
    assert stats["store_size"] == 2
    sim.run()
    stats = sim.stats()
    assert stats["store_size"] == 0
    assert stats["delivery_depth"] == 0

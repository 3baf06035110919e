"""Dispatch order: the golden orderings, one loop for every entry point,
the same-time merge of timer heap and delivery lane, and the clamp.

The dispatch order of seeded scripts of timers, zero-delay calls,
same-time chains and waitable fan-in (no priorities, no cancels) is
pinned against stored digests (``tests/fixtures/golden_digests.json``).
A property test drains random scripts through ``run()``, ``step()`` and
sliced ``run(until=...)`` and asserts one order.  The remaining tests
cover the ``(time, seq)`` merge of same-time heap entries with the
delivery lane, and the ``schedule_at`` float-drift clamp.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimError, Simulator, Waitable


#: Delays the scripts draw from; repeats make same-time ties common.
DELAYS = (0.0, 0.0, 0.1, 0.5, 1.0, 2.5)


def _random_script(seed, n_ops=160):
    """A seeded script of timers, zero-delay calls, same-time chains and
    waitable fan-in (no priorities, no cancels); see :func:`_play`."""
    rng = random.Random(seed)
    script = []
    for _ in range(n_ops):
        roll = rng.random()
        delay = rng.choice(DELAYS)
        if roll < 0.3:
            script.append(("timer", delay, 0))
        elif roll < 0.4:
            script.append(("soon", 0.0, 0))
        elif roll < 0.55:
            script.append(("chain", delay, rng.randint(1, 4)))
        elif roll < 0.7:
            script.append(("wait", delay, rng.randint(1, 2)))
        elif roll < 0.8:
            script.append(("timeout", delay, 0))
        else:
            kind = "any" if roll < 0.9 else "all"
            low = 1 if kind == "any" else 0
            children = tuple(rng.choice(DELAYS) for _ in range(rng.randint(low, 3)))
            script.append((kind, delay, children))
    return script


def _play(sim, order, script):
    """Schedule ``script`` on ``sim``; dispatches append ``(tag, now)``.

    Each op is ``(kind, delay, arg)``:

    * ``timer`` — ``schedule(delay, ...)``, zero-delay included;
    * ``soon`` — ``call_soon`` at time 0;
    * ``chain`` — at ``delay``, a same-time chain of ``arg`` more links
      that alternates ``call_soon`` with a waitable delivery;
    * ``wait`` — a waitable with ``arg`` (1 or 2) callbacks, succeeded at
      ``delay``;
    * ``timeout`` — a :class:`Timeout` of ``delay``;
    * ``any`` / ``all`` — at ``delay``, an ``AnyOf`` / ``AllOf`` over
      timeouts of the ``arg`` delays (``all`` may be empty).
    """

    def note(tag):
        order.append((tag, sim.now))

    def chain(tag, depth):
        note(tag)
        if depth % 2:
            sim.call_soon(chain, tag + "+", depth - 1)
        elif depth:
            waitable = Waitable(sim)
            waitable.add_callback(lambda _w: chain(tag + "~", depth - 1))
            waitable.succeed()

    def fan_in(tag, kind, children):
        timeouts = [sim.timeout(delay, i) for i, delay in enumerate(children)]
        if kind == "any":
            # AnyOf succeeds with the first child; note that child's index.
            sim.any_of(timeouts).add_callback(
                lambda w: note("{}={}".format(tag, w.value.value))
            )
        else:
            sim.all_of(timeouts).add_callback(
                lambda w: note("{}={}".format(tag, w.value))
            )

    for index, (kind, delay, arg) in enumerate(script):
        tag = "{}{}".format(kind[0], index)
        if kind == "timer":
            sim.schedule(delay, note, tag)
        elif kind == "soon":
            sim.call_soon(note, tag)
        elif kind == "chain":
            sim.schedule(delay, chain, tag, arg)
        elif kind == "wait":
            waitable = Waitable(sim)
            for k in range(arg):
                waitable.add_callback(lambda _w, t="{}.{}".format(tag, k): note(t))
            sim.schedule(delay, waitable.succeed, None)
        elif kind == "timeout":
            sim.timeout(delay, tag).add_callback(lambda w: note(w.value))
        else:
            sim.schedule(delay, fan_in, tag, kind, arg)


def _trace_digest(order, now):
    return hashlib.sha256(repr((order, now)).encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 7, 23, 3, 11, 42])
def test_dispatch_order_matches_golden(seed, golden):
    sim = Simulator()
    order = []
    _play(sim, order, _random_script(seed))
    sim.run()
    observed = {"sha256": _trace_digest(order, sim.now), "events": len(order)}
    assert observed == golden["dispatch_orderings"][str(seed)], (
        "dispatch order for seed {} changed; observed {}".format(seed, observed)
    )


#: Later than any event a script can schedule: a fan-in op starts at most
#: 2.5 s in and its timeouts run at most 2.5 s more.
HORIZON = 6.0

_delays = st.sampled_from(DELAYS)
_ops = st.one_of(
    st.tuples(st.just("timer"), _delays, st.just(0)),
    st.tuples(st.just("soon"), st.just(0.0), st.just(0)),
    st.tuples(st.just("chain"), _delays, st.integers(1, 4)),
    st.tuples(st.just("wait"), _delays, st.integers(1, 2)),
    st.tuples(st.just("timeout"), _delays, st.just(0)),
    st.tuples(st.just("any"), _delays, st.lists(_delays, min_size=1, max_size=3).map(tuple)),
    st.tuples(st.just("all"), _delays, st.lists(_delays, max_size=3).map(tuple)),
)
# Slice points include event times, where an off-by-one ``until`` exit shows.
_cuts = st.lists(
    st.one_of(st.sampled_from((0.0, 0.1, 0.5, 1.0, 2.5, 5.0)), st.floats(0.0, HORIZON)),
    max_size=8,
)


def _drained(script, drain):
    sim = Simulator()
    order = []
    _play(sim, order, script)
    drain(sim)
    return order, sim.stats()["events_scheduled"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(script=st.lists(_ops, max_size=40), cuts=_cuts)
def test_run_step_and_sliced_run_dispatch_identically(script, cuts):
    """``run()``, ``step()`` and ``run(until=...)`` share one loop, so a bug
    in its ``once`` or ``until`` exit would show only as a different order."""

    def run(sim):
        sim.run()

    def step(sim):
        while sim.step():
            pass

    def sliced(sim):
        for cut in sorted(cuts) + [HORIZON]:
            sim.run(until=cut)
        assert not sim.step()

    expected = _drained(script, run)
    assert _drained(script, step) == expected
    assert _drained(script, sliced) == expected


def test_call_soon_interleaves_with_heap_entries_by_seq(sim):
    """Same-time heap entries (a timer, ``call_soon``, a zero-delay
    ``schedule``) and delivery-lane entries run in seq order."""
    order = []

    def outer():
        sim.schedule(1.0, order.append, "later")
        sim.call_soon(order.append, "soon-a")
        waitable = Waitable(sim)
        waitable.add_callback(lambda _w: order.append("delivery"))
        waitable.succeed()
        sim.schedule(0.0, order.append, "zero")
        sim._soon1(order.append, "soon1")
        sim.call_soon(order.append, "soon-b")

    sim.schedule(2.0, outer)
    # Same time as ``outer`` and an earlier seq than anything it queues,
    # so it must beat the delivery lane.
    sim.schedule(2.0, order.append, "timer")
    sim.run()
    assert order == ["timer", "soon-a", "delivery", "zero", "soon1", "soon-b", "later"]


def test_step_drains_lanes_and_heap_in_order(sim):
    order = []
    sim.call_soon(order.append, "soon")
    sim._soon1(order.append, "delivery")
    sim.schedule(1.0, order.append, "later")
    assert sim.step() and order == ["soon"]
    assert sim.step() and order == ["soon", "delivery"]
    assert sim.step() and order == ["soon", "delivery", "later"]
    assert not sim.step()


def test_waitable_deliveries_use_tuple_lane(sim):
    """Waitable callback deliveries ride the delivery lane, not the heap."""
    done = []
    waitable = Waitable(sim)
    waitable.add_callback(lambda w: done.append(w))
    waitable.succeed()
    assert len(sim._dq) == 1
    assert sim.stats()["store_size"] == 0
    sim.run()
    assert done == [waitable]
    assert not sim._dq


def test_schedule_at_clamps_float_drift(sim):
    """when == now 'after float accumulation' must not raise."""
    sim.schedule(0.1, lambda: None)
    sim.run()
    sim.schedule(0.2, lambda: None)
    sim.run()
    # now is 0.1 + 0.2 = 0.30000000000000004; the mathematically equal
    # target 0.3 lands a hair in the past.
    assert sim.now == 0.1 + 0.2
    fired = []
    sim.schedule_at(0.3, fired.append, "clamped")
    sim.run()
    assert fired == ["clamped"]
    assert sim.now == 0.1 + 0.2


def test_schedule_at_still_rejects_real_past(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(4.5, lambda: None)

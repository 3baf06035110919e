"""Hot-path throughput: engine events/sec and Kprof fires/sec.

Unlike the figure benchmarks, this one measures the *simulator itself* —
the event loop and the monitoring hub every experiment routes millions
of events through.  The engine has one configuration (a delivery lane
beside a binary heap of timers, drained by one loop), so this records
its rate on the callback-delivery workload that dominates real runs.
Earlier trajectory entries come from engines with a calendar-queue
store, and some also hold a since-deleted lane-free heap baseline.

Results append to the ``trajectory`` list in ``BENCH_engine.json`` at
the repo root so later PRs extend the perf history instead of erasing
it; see docs/performance.md for how to read it.
"""

import time
from pathlib import Path

from repro.cluster import Cluster
from repro.core.kprof import Kprof, exclude_port_range
from repro.ossim import tracepoints as tp
from repro.sim.engine import Simulator, Waitable

from benchmarks.conftest import SMOKE, record_run

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Callback deliveries per engine measurement.
N_EVENTS = 15_000 if SMOKE else 150_000
#: Future timers parked in the heap while callbacks churn, as in a real
#: cluster run (retransmit timers, eviction ticks, load injectors).
STANDING_TIMERS = 1000
#: Tracepoint hits per Kprof measurement.
N_FIRES = 50_000 if SMOKE else 200_000
ROUNDS = 2 if SMOKE else 3


def _engine_rate():
    """Best-of-N events/sec for the Waitable callback-delivery chain."""
    best = 0.0
    for _ in range(ROUNDS):
        sim = Simulator()
        for index in range(STANDING_TIMERS):
            sim.schedule(1e6 + index, lambda: None)
        fired = [0]

        def tick(_w, sim=sim, fired=fired):
            fired[0] += 1
            if fired[0] < N_EVENTS:
                waitable = Waitable(sim)
                waitable.add_callback(tick)
                waitable.succeed()

        seed = Waitable(sim)
        seed.add_callback(tick)
        seed.succeed()
        started = time.perf_counter()
        sim.run(until=5e5)
        elapsed = time.perf_counter() - started
        assert fired[0] == N_EVENTS
        best = max(best, N_EVENTS / elapsed)
    return best


def _kprof_node():
    return Cluster(seed=3).add_node("bench")


def _kprof_rate(predicate=None):
    """Best-of-N fires/sec through an attached Kprof with one subscriber."""
    best = 0.0
    for _ in range(ROUNDS):
        node = _kprof_node()
        kprof = Kprof(node.kernel).attach()
        seen = [0]

        def on_event(_event, seen=seen):
            seen[0] += 1

        kprof.subscribe([tp.SOCK_ENQUEUE], on_event, predicate=predicate)
        fire = kprof.fire
        started = time.perf_counter()
        for _ in range(N_FIRES):
            fire(tp.SOCK_ENQUEUE, sock_pid=7, src_port=80, dst_port=5001,
                 size=1448)
        elapsed = time.perf_counter() - started
        best = max(best, N_FIRES / elapsed)
    return best


def test_engine_throughput():
    engine_rate = _engine_rate()
    deliver_rate = _kprof_rate()
    # All events rejected by a fields-only predicate: the hub must skip
    # MonEvent construction entirely, so this path is the fastest.
    suppress_rate = _kprof_rate(predicate=exclude_port_range(5000, 5999))

    if not SMOKE:  # smoke runs never append to the recorded trajectory
        record_run(BENCH_PATH, "sysprof-repro/bench-engine/v3", {
            "engine": {
                "workload": "waitable callback chain, {} standing timers".format(
                    STANDING_TIMERS
                ),
                "events": N_EVENTS,
                "events_per_sec": round(engine_rate),
            },
            "kprof": {
                "fires": N_FIRES,
                "fires_per_sec_delivered": round(deliver_rate),
                "fires_per_sec_all_suppressed": round(suppress_rate),
            },
        })

    from benchmarks.conftest import report

    report(
        "engine/Kprof hot-path throughput (written to BENCH_engine.json)",
        ("metric", "per second"),
        [
            ("events/sec", engine_rate),
            ("kprof fires/sec (delivered)", deliver_rate),
            ("kprof fires/sec (all suppressed)", suppress_rate),
        ],
    )
    # Suppression skips MonEvent construction entirely, so it must win;
    # smoke runs only sanity-check it is not dramatically slower.
    assert suppress_rate > (0.8 if SMOKE else 1.0) * deliver_rate

"""Device schedule oracle: a seeded CPU-core and link trace against stored data.

Same-time events run in engine ``seq`` order, so when a CPU core or a
link serializer allocates an event changes what runs first in a tied
instant.  A slice is accounted in its timer's own event, so a preempt
queued in the instant a slice timer fires always lands after that slice
is accounted, and a link finishes a packet in its serialization timer's
event.  The script below drives a 1-core node, a 2-core node and one
link through the tied instants that matter -- a preempt in the instant
a slice ends (queued before and after the slice timer fires), two
preempts in one instant, a preempt that lands on a core already gone
idle (with and without a wake in between), quantum requeue, affinity
pinning, work stealing, and a packet queued in the instant the
serializer frees -- with dyadic durations and costs so those instants
tie exactly.  The trace (every CPU item's ``(start, end)``, every
packet delivery, per-core accounting and the engine's event count) is
pinned by its sha256 and length in ``tests/fixtures/golden_digests.json``.
"""

import hashlib

from repro.cluster import Cluster
from repro.netsim import Address, Link, Packet
from repro.ossim.costs import CostModel
from repro.ossim.task import BAND_IRQ, BAND_KERNEL, BAND_USER, Task

#: One "tick" of the script: every time and cost is a multiple of it.
TICK = 2.0 ** -10

COSTS = CostModel().override(context_switch=TICK, quantum=64 * TICK)

#: Link bandwidth that makes serialization take ``wire_size`` ticks.
LINK_BPS = 8 * 1024


def _device_schedule():
    cluster = Cluster(seed=5, costs=COSTS)
    sim = cluster.sim
    uni = cluster.add_node("uni")
    smp = cluster.add_node("smp", cpus=2)
    trace = []
    tasks = {}

    def task(node, name, band=BAND_USER, affinity=None):
        key = (node.name, name)
        if key not in tasks:
            kernel = node.kernel
            tasks[key] = Task(len(tasks) + 100, name, kernel, band=band)
            tasks[key].affinity = affinity
        return tasks[key]

    def run(cpu, label, owner, ticks, mode="user", band=None):
        done = cpu.submit(owner, ticks * TICK, mode, band=band)
        done.add_callback(
            lambda waitable: trace.append(("cpu", label) + waitable.value + (sim.now,))
        )

    def at(ticks, fn, *args):
        sim.schedule_at(ticks * TICK, fn, *args)

    # -- 1-core node ---------------------------------------------------
    cpu = uni.kernel.cpu
    u1, u2 = task(uni, "u1"), task(uni, "u2")
    k1 = task(uni, "k1", band=BAND_KERNEL)
    k2 = task(uni, "k2", band=BAND_KERNEL)
    # Quantum requeue: u1 needs 1.5 quanta, u2 half of one.
    at(0, run, cpu, "u1", u1, 96)
    at(0, run, cpu, "u2", u2, 32)
    # A preempt in the instant u1's first slice ends, queued before the
    # slice timer fires: the timer accounts the slice and starts irq-a
    # first, and the preempt then cuts irq-a's slice at zero elapsed time.
    at(65, run, cpu, "irq-a", None, 16, "kernel", BAND_IRQ)

    # A preempt in the instant u2's slice ends, queued after the slice
    # timer fired: again the slice completes first and the preempt cuts
    # the next one (u1's) at zero elapsed time.
    def preempt_after_timer():
        at(114, run, cpu, "k-b", k1, 8, "kernel")

    at(100, preempt_after_timer)

    # Two preempts in one instant, mid-slice.
    def two_preempts():
        run(cpu, "k-c", k2, 4, "kernel")
        run(cpu, "irq-d", None, 4, "kernel", BAND_IRQ)

    at(140, two_preempts)
    at(400, run, cpu, "u1-late", u1, 200)

    # -- 2-core node ---------------------------------------------------
    cores = smp.kernel.cpu
    pinned = task(smp, "pinned", affinity=1)
    # Affinity pinning, shortest-queue placement and requeue on core 1.
    at(0, run, cores, "pinned", pinned, 128)
    at(0, run, cores, "free1", task(smp, "free1"), 64)
    at(0, run, cores, "free2", task(smp, "free2"), 64)
    at(0, run, cores, "free3", task(smp, "free3"), 32)

    # Both cores end a slice at 577 ticks, core 1's timer pushed first.
    # A kernel-band item submitted in that instant before either timer
    # fires lands on core 0 and queues a preempt.  Core 1's slice ends
    # first and it steals the item, so core 0 parks before the preempt
    # lands.  A submit to core 0 between the two queues a wake, which the
    # preempt overtakes.
    at(512, run, cores.core(1), "b", task(smp, "b"), 64)
    at(512, run, cores.core(0), "a", task(smp, "a"), 64)
    at(577, run, cores, "k-steal", task(smp, "k-steal", band=BAND_KERNEL), 32, "kernel")
    at(540, lambda: at(577, run, cores.core(0), "x", task(smp, "x"), 16))

    # The same without the wake: the idle core re-parks, and a later
    # submit wakes it.
    at(768, run, cores.core(1), "b2", task(smp, "b2"), 64)
    at(768, run, cores.core(0), "a2", task(smp, "a2"), 64)
    at(833, run, cores, "k-steal2", task(smp, "k-steal2", band=BAND_KERNEL), 32,
       "kernel")
    at(896, run, cores.core(0), "y", task(smp, "y"), 16)

    # -- one link ------------------------------------------------------
    def deliver(packet):
        trace.append(("pkt", packet.meta, sim.now))

    link = Link(
        sim, LINK_BPS, latency=4 * TICK, deliver=deliver, loss_rate=0.125,
        rng=cluster.streams.stream("device-schedule.link"), name="wire",
    )
    src, dst = Address("10.9.0.1", 1), Address("10.9.0.2", 2)

    def packet(label, wire_ticks):
        return Packet(src, dst, wire_ticks - Packet.HEADER_BYTES, meta=label)

    # Queued before the serializer process has started.
    link.transmit(packet("l1", 128))

    def ring():
        for index, wire in enumerate((128, 192, 96, 128, 160, 128)):
            label = "r{}".format(index)
            sent = yield link.transmit_blocking(packet(label, wire))
            trace.append(("sent", sent.meta, sim.now))

    sim.process(ring(), name="ring")
    # Queued in the instant l1 finishes, before its timer fires.
    at(128, link.transmit, packet("l2", 192))

    # Queued in the instant a packet finishes, after its timer fired: the
    # serializer is already idle and starts it at once.
    def queue_after_timer():
        at(864, link.transmit, packet("l3", 96))

    at(800, queue_after_timer)
    at(900, link.set_admin, False)
    at(1100, link.set_admin, True)
    at(1400, link.transmit, packet("l4", 64))

    sim.run()
    for node in (uni, smp):
        node_cpu = node.kernel.cpu
        for core in getattr(node_cpu, "cores", [node_cpu]):
            trace.append((
                node.name, core.index, core.busy_time,
                sorted(core.mode_time.items()), core.ctx_switch_count,
            ))
    trace.append((
        "link", link.busy_time, link.tx_packets, link.tx_bytes, link.dropped,
        link.admin_dropped, link.queue_depth,
    ))
    trace.append(("events", sim.stats()["events_scheduled"], sim.now))
    return trace


def test_device_schedule_matches_golden(golden):
    trace = _device_schedule()
    observed = {
        "sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "length": len(trace),
    }
    assert observed == golden["device_schedules"], (
        "device schedule changed; observed {} ({} events scheduled)".format(
            observed, trace[-1][1]
        )
    )

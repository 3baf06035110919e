"""NIC schedule oracle: a scripted TX-ring trace against stored data.

The NIC's TX pump takes packets off a bounded ring and hands each to its
port, waiting until the link has serialized it; a full ring blocks the
kernel-side ``enqueue``.  Same-time events run in engine ``seq`` order,
so when the pump allocates an event decides what a tied instant sees:
whether a putter the ring admits runs before the pump hands its packet
to the link, and whether a packet queued as the link frees is taken at
once or wakes a parked pump.  The pump takes its next ready packet in
the instant the link finishes one.  The script drives a 2-slot ring on
a link whose serialization takes whole ticks through those instants -- two
bursts that fill the ring so ``enqueue`` blocks, blocked putters
admitted in the instant the pump takes a packet, packets enqueued in the
instant the link finishes one (before and after its timer, and after
the pump parked), and an idle pump woken by a put while best-effort
sends fill the ring.  Each trace entry is a ``(label, now)`` pair whose
label carries the NIC's and the link's counters at that instant.  The
trace's sha256 and length and the engine's event count are pinned in
``tests/fixtures/golden_digests.json``.
"""

import hashlib

from repro.netsim import Address, Link, Packet
from repro.netsim.nic import Nic
from repro.sim import Simulator

#: One "tick" of the script: every time is a multiple of it.
TICK = 2.0 ** -10

#: Link bandwidth that makes serialization take ``wire_size`` ticks.
LINK_BPS = 8 * 1024


def _nic_schedule():
    sim = Simulator()
    trace = []
    link = Link(
        sim, LINK_BPS, latency=4 * TICK,
        deliver=lambda packet: mark("deliver", packet.meta), name="wire",
    )
    nic = Nic(sim, "10.9.0.1", tx_ring_slots=2, name="nic")
    nic.attach(link)
    src, dst = Address("10.9.0.1", 1), Address("10.9.0.2", 2)

    def mark(*label):
        counters = (nic.tx_packets, nic.tx_backlog, link.queue_depth, link.tx_packets)
        trace.append((label + counters, sim.now))

    def packet(label, wire_ticks):
        return Packet(src, dst, wire_ticks - Packet.HEADER_BYTES, meta=label)

    def at(ticks, fn, *args):
        sim.schedule_at(ticks * TICK, fn, *args)

    def after_hops(hops, fn, *args):
        """Run ``fn(*args)`` ``hops`` delivery-lane hops from now."""
        if hops == 0:
            fn(*args)
        else:
            sim._soon1(lambda _arg: after_hops(hops - 1, fn, *args), None)

    def sender(name, wire_ticks):
        for index, wire in enumerate(wire_ticks):
            label = "{}{}".format(name, index)
            mark("enqueue", label)
            accepted = yield nic.enqueue(packet(label, wire))
            mark("accepted", accepted.meta)

    def put(label, wire):
        done = nic.enqueue(packet(label, wire))
        mark("put", label, done.triggered)
        done.add_callback(lambda _done: mark("accepted", label))

    def try_put(label, wire):
        mark("try", label, nic.try_enqueue(packet(label, wire)))

    # Two bursts at once: the ring fills, both senders block, and each
    # packet the pump takes admits one of them in that instant.
    sim.process(sender("a", (128, 64, 96, 128, 64)), name="a")
    sim.process(sender("b", (96, 128, 64)), name="b")

    # a4 leaves the wire at 768 with the ring empty.  c0 is queued before
    # the link's timer fires, so the pump takes it as a4 finishes; c1 is
    # queued after the timer and waits in the ring for the next take.
    at(768, put, "c0", 64)
    at(740, lambda: at(768, put, "c1", 32))

    # c1 leaves the wire at 864, again with the ring empty, so the pump
    # parks on the ring in that timer's event.  c2 is queued two hops
    # later and its put wakes the pump.
    at(850, lambda: at(864, after_hops, 2, put, "c2", 32))

    # Long idle, then a put wakes the parked pump; best-effort sends in
    # the same instant fill the ring and the last one is refused.
    at(2048, put, "d0", 64)
    for label in ("d1", "d2", "d3"):
        at(2048, try_put, label, 32)

    sim.run()
    return trace, sim.stats()["events_scheduled"]


def test_nic_schedule_matches_golden(golden):
    trace, events = _nic_schedule()
    observed = {
        "sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "length": len(trace),
        "events_scheduled": events,
    }
    assert observed == golden["nic_schedule"], (
        "NIC schedule changed; observed {}".format(observed)
    )

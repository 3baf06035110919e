"""Link serialization/latency/loss and switch forwarding."""

import pytest

from repro.netsim import Address, Fabric, Link, Packet
from repro.sim import RandomStreams


def _packet(size=1000, frames=1):
    return Packet(Address("10.0.0.1", 1), Address("10.0.0.2", 2), size, frames=frames)


def test_link_serialization_plus_latency(sim):
    arrivals = []
    link = Link(sim, bandwidth_bps=8_000_000, latency=1e-3,
                deliver=lambda p: arrivals.append(sim.now))
    packet = _packet(size=1000 - Packet.HEADER_BYTES)  # wire = 1000B = 1ms at 8Mbps
    link.transmit(packet)
    sim.run()
    assert arrivals == [pytest.approx(2e-3)]


def test_link_serializes_back_to_back(sim):
    arrivals = []
    link = Link(sim, bandwidth_bps=8_000_000, latency=0.0,
                deliver=lambda p: arrivals.append(sim.now))
    for _ in range(3):
        link.transmit(_packet(size=1000 - Packet.HEADER_BYTES))
    sim.run()
    assert arrivals == [pytest.approx(1e-3 * k) for k in (1, 2, 3)]


def test_link_blocking_transmit_signals_completion(sim):
    link = Link(sim, bandwidth_bps=8_000_000, latency=5e-3, deliver=lambda p: None)
    done = link.transmit_blocking(_packet(size=1000 - Packet.HEADER_BYTES))
    sim.run(until=1.5e-3)
    assert done.triggered  # after serialization, before propagation ends


def test_link_on_sent_runs_inline_before_propagation(sim):
    """``on_sent(packet)`` runs in the serialization timer's own event:
    no engine event is allocated for it, and the packet's propagation is
    scheduled only after it returns."""
    log = []
    link = Link(sim, bandwidth_bps=8_000_000, latency=0.0,
                deliver=lambda p: log.append(("deliver", p, sim.now)))
    sim.run()  # the link's start hop
    before = sim.stats()["events_scheduled"]
    packet = _packet(size=1000 - Packet.HEADER_BYTES)
    link.transmit(packet, lambda sent: log.append(
        ("sent", sent, sim.now, sim.stats()["events_scheduled"] - before)))
    sim.run()
    # One event (the timer) before on_sent, one more (the propagation) after.
    assert log == [("sent", packet, 1e-3, 1), ("deliver", packet, 1e-3)]
    assert sim.stats()["events_scheduled"] - before == 2


def test_link_blocking_waitables_fire_once_each(sim):
    link = Link(sim, bandwidth_bps=8_000_000, latency=5e-3, deliver=lambda p: None)
    packets = [_packet(size=1000 - Packet.HEADER_BYTES) for _ in range(2)]
    fired = []
    for packet in packets:
        link.transmit_blocking(packet).add_callback(
            lambda done: fired.append((done.value, sim.now)))
    sim.run()
    assert fired == [(packets[0], 1e-3), (packets[1], 2e-3)]


def test_link_loss_drops_packets(sim):
    rng = RandomStreams(3).stream("loss")
    delivered = []
    link = Link(sim, bandwidth_bps=1e9, latency=0.0,
                deliver=lambda p: delivered.append(p), loss_rate=0.5, rng=rng)
    for _ in range(200):
        link.transmit(_packet())
    sim.run()
    assert link.dropped > 50
    assert len(delivered) == 200 - link.dropped


def test_link_requires_rng_for_loss(sim):
    with pytest.raises(ValueError):
        Link(sim, 1e9, 0.0, lambda p: None, loss_rate=0.1)


def test_link_utilization_counts_busy_time(sim):
    link = Link(sim, bandwidth_bps=8_000_000, latency=0.0, deliver=lambda p: None)
    link.transmit(_packet(size=1000 - Packet.HEADER_BYTES))
    sim.run()
    assert link.busy_time == pytest.approx(1e-3)
    assert link.tx_packets == 1


def test_fabric_assigns_unique_ips(sim):
    fabric = Fabric(sim)
    nics = [fabric.create_nic() for _ in range(3)]
    assert len({nic.ip for nic in nics}) == 3


def test_fabric_rejects_duplicate_ip(sim):
    fabric = Fabric(sim)
    fabric.create_nic(ip="10.0.0.1")
    with pytest.raises(ValueError):
        fabric.create_nic(ip="10.0.0.1")


def test_switch_routes_between_nics(sim):
    fabric = Fabric(sim, bandwidth_bps=1e9, latency=10e-6)
    a = fabric.create_nic()
    b = fabric.create_nic()
    received = []
    b.rx_handler = lambda packet: received.append((sim.now, packet))
    a.enqueue(Packet(Address(a.ip, 1), Address(b.ip, 2), 500))
    sim.run()
    assert len(received) == 1
    # two hops of latency + forwarding + two serializations
    assert received[0][0] > 20e-6


def test_switch_counts_unroutable(sim):
    fabric = Fabric(sim)
    a = fabric.create_nic()
    a.enqueue(Packet(Address(a.ip, 1), Address("10.9.9.9", 2), 500))
    sim.run()
    assert fabric.switch.unroutable == 1


def test_fabric_stats_shape(sim):
    fabric = Fabric(sim)
    a = fabric.create_nic()
    b = fabric.create_nic()
    b.rx_handler = lambda packet: None
    a.enqueue(Packet(Address(a.ip, 1), Address(b.ip, 2), 100))
    sim.run()
    stats = fabric.stats()
    assert stats["forwarded"] == 1
    assert set(stats["ports"]) == {a.ip, b.ip}


def test_nic_rx_drops_without_handler(sim):
    fabric = Fabric(sim)
    a = fabric.create_nic()
    b = fabric.create_nic()
    a.enqueue(Packet(Address(a.ip, 1), Address(b.ip, 2), 100))
    sim.run()
    assert b.rx_dropped == 1


def test_nic_ring_backpressure(sim):
    fabric = Fabric(sim, bandwidth_bps=1_000_000)  # slow link
    a = fabric.create_nic()
    b = fabric.create_nic()
    b.rx_handler = lambda packet: None
    # Fill beyond the ring: try_enqueue should eventually refuse.
    refused = 0
    for _ in range(400):
        if not a.try_enqueue(Packet(Address(a.ip, 1), Address(b.ip, 2), 1500)):
            refused += 1
    assert refused > 0
    sim.run()

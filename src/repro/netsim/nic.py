"""Network interface card: rate-limited TX ring, RX handoff to the kernel."""

from repro.sim.errors import SimError
from repro.sim.resources import Store


class Nic:
    """A NIC attached to one node.

    TX side: the kernel enqueues packets onto the ring; a pump serializes
    them onto the attached port at line rate.  A bounded ring models
    device queueing — when it is full the kernel-side enqueue blocks (the
    waitable returned by :meth:`enqueue` completes on space), which is
    how transmit backpressure reaches the socket layer.

    The pump is a callback state machine (``docs/performance.md``).  It
    takes a ready packet off the ring and hands it to the port in the
    same instant, both after its start hop and in the instant the port
    finishes the previous packet; only a pump parked on an empty ring
    costs an engine event, the delivery hop of the put that wakes it.

    RX side: the fabric calls :meth:`receive`; the NIC hands the packet to
    the kernel's registered ``rx_handler`` (interrupt context).
    """

    def __init__(self, sim, ip, tx_ring_slots=256, name=None):
        self.sim = sim
        self.ip = ip
        self.name = name or "nic-{}".format(ip)
        self._ring = Store(sim, capacity=tx_ring_slots)
        self._port = None  # set when attached to a switch/fabric
        self.rx_handler = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.rx_dropped = 0
        sim._soon1(self._pull, None)  # start hop

    def attach(self, port):
        """Connect the NIC's TX side to a fabric/switch port (a Link)."""
        self._port = port

    def enqueue(self, packet):
        """Kernel TX: returns a waitable that succeeds once the ring accepts."""
        packet.sent_at = self.sim.now
        return self._ring.put(packet)

    def try_enqueue(self, packet):
        """Non-blocking TX used by best-effort senders; False when ring full."""
        packet.sent_at = self.sim.now
        return self._ring.try_put(packet)

    @property
    def tx_backlog(self):
        return len(self._ring)

    def receive(self, packet):
        """Fabric-side delivery; dispatches to the kernel RX handler."""
        self.rx_packets += 1
        if self.rx_handler is None:
            self.rx_dropped += 1
            return
        self.rx_handler(packet)

    def _pull(self, _sent):
        """The pump is free: send the next ready packet, or park.

        ``Store.try_get`` admits blocked putters before the packet goes
        to the port, as ``Store.get`` does, so they get their engine
        seqs first.  An empty ring parks the pump on a ``get``.
        """
        ready, packet = self._ring.try_get()
        if ready:
            self._send(packet)
        else:
            self._ring.get().add_callback(self._wake)

    def _wake(self, got):
        """A put reached the parked pump."""
        self._send(got.value)

    def _send(self, packet):
        """Hand ``packet`` to the port; pull again once it is sent."""
        if self._port is None:
            raise SimError("NIC {} transmitting while unattached".format(self.name))
        self.tx_packets += 1
        self._port.transmit(packet, self._pull)

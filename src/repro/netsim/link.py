"""Point-to-point unidirectional link with serialization, latency, and loss."""

from collections import deque


class Link:
    """One direction of a wire.

    Packets are serialized at ``bandwidth_bps`` (one at a time,
    store-and-forward) then arrive at ``deliver`` after the propagation
    ``latency``.  ``loss_rate`` drops packets after serialization, as a
    real lossy medium would.

    Two admission styles:

    * :meth:`transmit` — the packet waits in the link queue (switch
      output ports, where queueing is the model); an optional
      ``on_sent(packet)`` runs in the instant it leaves the wire, which
      is how a NIC TX pump applies backpressure instead of queueing
      unboundedly.
    * :meth:`transmit_blocking` — returns a waitable that triggers when
      serialization finishes.

    The serializer is a callback state machine over a plain deque.  A
    packet costs one engine event, its serialization timer, which
    finishes it; besides that a link allocates its start hop and each
    packet's propagation (``docs/performance.md``).
    """

    def __init__(self, sim, bandwidth_bps, latency, deliver, loss_rate=0.0, rng=None, name="link"):
        if bandwidth_bps <= 0:
            raise ValueError("link bandwidth must be positive")
        if loss_rate and rng is None:
            raise ValueError("loss_rate requires an rng stream")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.loss_rate = loss_rate
        self.name = name
        self._deliver = deliver
        self._rng = rng
        self._queue = deque()  # (packet, on_sent callable or None) entries
        self._idle = False  # serializer free with nothing queued
        self._current = None  # the entry on the wire
        self._delay = 0.0  # its serialization delay
        self.admin_up = True
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        self.admin_dropped = 0
        self.busy_time = 0.0
        sim._soon1(self._next, None)  # start hop

    def set_admin(self, up):
        """Administratively raise/lower the link.

        Distinct from ``loss_rate``: while down, every packet is dropped
        deterministically after serialization (the wire still clocks bits
        out; they just go nowhere), counted in ``admin_dropped``.
        """
        self.admin_up = bool(up)

    def transmit(self, packet, on_sent=None):
        """Queue a packet for transmission (never blocks the caller).

        ``on_sent(packet)``, when given, runs inline in the instant the
        packet leaves the wire, before its propagation is scheduled.
        """
        self._put((packet, on_sent))

    def transmit_blocking(self, packet):
        """Queue a packet; the returned waitable fires when it leaves the wire."""
        done = self.sim.waitable()
        self._put((packet, done.succeed))
        return done

    @property
    def queue_depth(self):
        return len(self._queue)

    def serialization_delay(self, packet):
        return packet.wire_size * 8.0 / self.bandwidth_bps

    def utilization(self, now):
        return self.busy_time / now if now > 0 else 0.0

    def _put(self, entry):
        if self._idle:
            self._idle = False
            self._send(entry)
        else:
            self._queue.append(entry)

    def _next(self, _arg=None):
        """The serializer is free: start the next queued packet at once."""
        if self._queue:
            self._send(self._queue.popleft())
        else:
            self._idle = True

    def _send(self, entry):
        delay = self.serialization_delay(entry[0])
        self._current = entry
        self._delay = delay
        self.sim._at(delay, self._finish, None)

    def _finish(self, _arg):
        """Serialization timer fired: the packet has left the wire."""
        packet, on_sent = self._current
        self.busy_time += self._delay
        self.tx_packets += 1
        self.tx_bytes += packet.wire_size
        if on_sent is not None:
            on_sent(packet)
        if not self.admin_up:
            self.admin_dropped += 1
        elif self.loss_rate and self._rng.random() < self.loss_rate:
            self.dropped += 1
        else:
            self.sim._at(self.latency, self._deliver, packet)
        self._next()

"""Iperf-like bulk TCP throughput benchmark.

Reproduces the paper's §3.1 bandwidth microbenchmark: a sender streams
as fast as flow control allows; the receiver measures goodput.  On the
1 Gbps testbed the baseline is CPU-limited near 930 Mbps and enabling
SysProf costs ≈13%; on a 100 Mbps LAN the link is the limit and overhead
is small.

``frame_batch`` aggregates several MTU frames into one simulated packet
(costs scaled accordingly) to keep event counts manageable at gigabit
rates; it is a simulation-speed knob, not a model change.
"""

IPERF_PORT = 5001


class IperfResult:
    def __init__(self, bytes_received, duration, messages):
        self.bytes_received = bytes_received
        self.duration = duration
        self.messages = messages

    @property
    def mbps(self):
        if self.duration <= 0:
            return 0.0
        return self.bytes_received * 8.0 / self.duration / 1e6

    def __repr__(self):
        return "<IperfResult {:.1f} Mbps over {:.3f}s>".format(self.mbps, self.duration)


class IperfRun:
    """Wires up a sender/receiver pair; read :attr:`result` after running."""

    #: Bytes per message the sender writes.
    message_bytes = 65536
    #: MTU frames aggregated into one simulated packet (see the module
    #: docstring).
    frame_batch = 4

    def __init__(self, sender_node, receiver_node, duration=0.5,
                 port=IPERF_PORT):
        self.sender_node = sender_node
        self.receiver_node = receiver_node
        self.duration = duration
        self.port = port
        self.result = None
        self._rx_bytes = 0
        self._rx_messages = 0
        self._started_at = None

    def start(self):
        self.receiver_node.spawn("iperf-server", self._receiver)
        self.sender_node.spawn("iperf-client", self._sender)
        return self

    def _receiver(self, ctx):
        lsock = yield from ctx.listen(self.port)
        sock = yield from ctx.accept(lsock)
        start = ctx.now
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            self._rx_bytes += message.size
            self._rx_messages += 1
        elapsed = ctx.now - start
        self.result = IperfResult(self._rx_bytes, elapsed, self._rx_messages)
        return self.result

    def _sender(self, ctx):
        sock = yield from ctx.connect(self.receiver_node.name, self.port)
        self._started_at = ctx.now
        end = ctx.now + self.duration
        while ctx.now < end:
            yield from ctx.send_message(
                sock, self.message_bytes, kind="iperf", frame_batch=self.frame_batch
            )
        yield from ctx.close(sock)

    def snapshot_mbps(self, now):
        """Current goodput estimate while the run is still in flight."""
        if self._started_at is None or now <= self._started_at:
            return 0.0
        return self._rx_bytes * 8.0 / (now - self._started_at) / 1e6


def run_iperf(cluster, sender, receiver, duration=0.5):
    """Convenience: run an iperf pair to completion (plus 0.2 s for the
    last messages to land) and return the result."""
    run = IperfRun(
        cluster.node(sender), cluster.node(receiver), duration=duration
    ).start()
    cluster.sim.run(until=cluster.sim.now + duration + 0.2)
    if run.result is None:
        # Receiver still waiting on a final partial message; use counters.
        run.result = IperfResult(run._rx_bytes, duration, run._rx_messages)
    return run.result

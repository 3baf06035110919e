"""Message and interaction extraction from packet-level events.

Paper §2 ("Messages and Interactions"): for nodes A and B identified by
their (IP, port) pairs, *"a series of packets from node_A to node_B
without any intervening packets in the opposite direction constitute one
message.  An interaction consists of a message pair in the opposite
direction."*

The tracker consumes per-packet observations (direction, timestamp,
size) plus socket-delivery observations, maintains one state machine per
flow, and emits :class:`InteractionRecord` objects the moment a
request/response message pair completes.  No application knowledge is
used — only packet direction flips — which is exactly the paper's
black-box online technique (interleaved requests on one flow are
mis-segmented, a limitation the paper states explicitly).
"""

from itertools import count

_interaction_ids = count(1)


class MessageStats:
    """One unidirectional message reconstructed from a packet run."""

    __slots__ = (
        "src",
        "dst",
        "packets",
        "bytes",
        "first_ts",
        "last_ts",
        "first_rx_ts",
        "deliver_ts",
        "kind",
        "pid",
        "task_sample",
    )

    def __init__(self, src, dst, ts, kind=None):
        self.src = src
        self.dst = dst
        self.packets = 0
        self.bytes = 0
        self.first_ts = ts
        self.last_ts = ts
        self.first_rx_ts = None  # earliest driver-level timestamp (inbound)
        self.deliver_ts = None  # when the application read it (inbound)
        self.kind = kind
        self.pid = None
        self.task_sample = None

    def extend(self, ts, size, pid=None):
        self.packets += 1
        self.bytes += size
        self.last_ts = ts
        if pid:
            self.pid = pid

    @property
    def direction(self):
        return (self.src, self.dst)

    def __repr__(self):
        return "<Message {}->{} {}p {}B>".format(
            self.src, self.dst, self.packets, self.bytes
        )


class InteractionRecord:
    """A request/response pair observed at one node, with resource metrics."""

    __slots__ = (
        "interaction_id",
        "node",
        "client",
        "server",
        "request",
        "response",
        "start_ts",
        "end_ts",
        "kernel_wait",
        "kernel_cpu",
        "user_time",
        "io_blocked",
        "ctx_switches",
        "disk_ops",
        "server_pid",
        "server_name",
        "request_class",
    )

    def __init__(self, node, request, response):
        self.interaction_id = next(_interaction_ids)
        self.node = node
        self.client = request.src
        self.server = request.dst
        self.request = request
        self.response = response
        self.start_ts = request.first_ts
        self.end_ts = response.last_ts
        self.kernel_wait = 0.0
        self.kernel_cpu = 0.0
        self.user_time = 0.0
        self.io_blocked = 0.0
        self.ctx_switches = 0
        self.disk_ops = 0
        self.server_pid = 0
        self.server_name = ""
        self.request_class = request.kind or ""

    @property
    def total_latency(self):
        """Wall time the interaction spent at this node."""
        return self.end_ts - self.start_ts

    @property
    def kernel_time(self):
        """Kernel-level time at this node: receive-buffer residency plus
        kernel-mode CPU (for kernel daemons the I/O block time is kernel
        time too — "no time was spent by the request at the user level")."""
        return self.kernel_wait + self.kernel_cpu

    def as_dict(self):
        return {
            "interaction_id": self.interaction_id,
            "node": self.node,
            "client_ip": self.client[0],
            "client_port": self.client[1],
            "server_ip": self.server[0],
            "server_port": self.server[1],
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "req_packets": self.request.packets,
            "req_bytes": self.request.bytes,
            "resp_packets": self.response.packets,
            "resp_bytes": self.response.bytes,
            "kernel_wait": self.kernel_wait,
            "kernel_cpu": self.kernel_cpu,
            "kernel_time": self.kernel_time,
            "user_time": self.user_time,
            "io_blocked": self.io_blocked,
            "ctx_switches": self.ctx_switches,
            "disk_ops": self.disk_ops,
            "server_pid": self.server_pid,
            "server_name": self.server_name,
            "request_class": self.request_class,
            "total_latency": self.total_latency,
        }

    def as_row(self):
        """Preordered wire row: values in ``lpa.INTERACTION_FORMAT`` field
        order, so the dissemination path packs with zero dict lookups.
        ``tests/core/test_interactions.py`` pins the alignment."""
        return (
            self.interaction_id,
            self.node,
            self.client[0],
            self.client[1],
            self.server[0],
            self.server[1],
            self.start_ts,
            self.end_ts,
            self.request.packets,
            self.request.bytes,
            self.response.packets,
            self.response.bytes,
            self.kernel_wait,
            self.kernel_cpu,
            self.kernel_time,
            self.user_time,
            self.io_blocked,
            self.ctx_switches,
            self.disk_ops,
            self.server_pid,
            self.server_name,
            self.request_class,
            self.total_latency,
        )

    def __repr__(self):
        return "<Interaction #{} {}->{} total={:.6f}s>".format(
            self.interaction_id, self.client, self.server, self.total_latency
        )


class FlowState:
    """Per-flow extraction state."""

    __slots__ = (
        "key",
        "current",
        "closed",
        "undelivered",
        "last_activity",
        "pending_first_rx",
    )

    def __init__(self, key):
        self.key = key
        self.current = None
        self.closed = []
        self.undelivered = []
        self.last_activity = 0.0
        self.pending_first_rx = None


class InteractionTracker:
    """Turns a packet observation stream into interaction records.

    ``local_ip`` identifies which endpoint is "this node": inbound
    messages (dst == local) are requests when they open an interaction.
    ``emit`` is called with each completed :class:`InteractionRecord`.
    """

    #: Seconds without activity after which :meth:`expire_idle` drops a flow.
    idle_timeout = 1.0

    def __init__(self, node_name, local_ip, emit):
        self.node_name = node_name
        self.local_ip = local_ip
        self.emit = emit
        self.flows = {}
        self.interactions_emitted = 0
        self.messages_closed = 0
        self.unpaired_messages = 0

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------

    def note_rx_start(self, src, dst, ts):
        """Driver-level sighting of an inbound packet (earliest timestamp).

        Recorded before socket-level enqueue so that a message's
        ``first_rx_ts`` reflects when its first packet hit the node, not
        when protocol processing finished.
        """
        key = self._flow_key(src, dst)
        flow = self.flows.get(key)
        if flow is None:
            flow = self.flows[key] = FlowState(key)
        message = flow.current
        starting_new = message is None or message.direction != (src, dst)
        if starting_new and flow.pending_first_rx is None:
            flow.pending_first_rx = ts

    def on_packet(self, src, dst, ts, size, kind=None, pid=None, sampler=None):
        """One data packet between ``src`` and ``dst`` (address tuples).

        ``sampler`` is invoked lazily only when this packet opens a new
        message, to snapshot the owning task's resource accounting at the
        message boundary.
        """
        key = self._flow_key(src, dst)
        flow = self.flows.get(key)
        if flow is None:
            flow = self.flows[key] = FlowState(key)
        flow.last_activity = ts
        message = flow.current
        if message is None or message.direction != (src, dst):
            if message is not None:
                self._close_message(flow, message)
            message = MessageStats(src, dst, ts, kind=kind)
            flow.current = message
            if sampler is not None:
                message.task_sample = sampler()
            if dst[0] == self.local_ip:
                flow.undelivered.append(message)
                if flow.pending_first_rx is not None:
                    message.first_rx_ts = flow.pending_first_rx
            flow.pending_first_rx = None
        message.extend(ts, size, pid=pid)

    def on_deliver(self, src, dst, ts, task_sample=None):
        """The local application read a completed inbound message."""
        key = self._flow_key(src, dst)
        flow = self.flows.get(key)
        if flow is None:
            return
        while flow.undelivered:
            message = flow.undelivered[0]
            if message.deliver_ts is None:
                message.deliver_ts = ts
                message.task_sample = task_sample
                return
            flow.undelivered.pop(0)

    def flush(self, flow_key=None):
        """Close any open message(s) and emit pending interactions.

        Online operation emits interactions as soon as the next request's
        first packet closes the previous response; ``flush`` handles flow
        teardown / end-of-run.
        """
        keys = [flow_key] if flow_key is not None else list(self.flows)
        for key in keys:
            flow = self.flows.get(key)
            if flow is None:
                continue
            if flow.current is not None:
                self._close_message(flow, flow.current)
                flow.current = None
            self._pair(flow)
            if flow.closed:
                self.unpaired_messages += len(flow.closed)
                flow.closed.clear()

    def expire_idle(self, now):
        """Flush flows idle longer than ``idle_timeout`` and forget them."""
        stale = [
            key
            for key, flow in self.flows.items()
            if now - flow.last_activity > self.idle_timeout
        ]
        for key in stale:
            self.flush(key)
            del self.flows[key]
        return len(stale)

    # ------------------------------------------------------------------

    def _flow_key(self, src, dst):
        return (src, dst) if src <= dst else (dst, src)

    def _close_message(self, flow, message):
        self.messages_closed += 1
        flow.closed.append(message)
        self._pair(flow)

    def _pair(self, flow):
        while len(flow.closed) >= 2:
            request = flow.closed.pop(0)
            response = flow.closed.pop(0)
            if request.direction == response.direction:
                # Should not happen (alternation by construction); guard anyway.
                self.unpaired_messages += 1
                flow.closed.insert(0, response)
                continue
            record = InteractionRecord(self.node_name, request, response)
            self.interactions_emitted += 1
            self.emit(record)


def pending_interactions(tracker):
    """Load signal: inbound requests seen but not yet answered.

    Counts undelivered inbound messages across the tracker's open flows —
    the queue-depth metric sampled by :class:`~repro.core.lpa.NodeStatsLPA`
    and sketched per request class by :class:`~repro.core.lpa.SketchLPA`.
    """
    pending = 0
    for flow in tracker.flows.values():
        pending += sum(
            1 for message in flow.undelivered if message.deliver_ts is None
        )
    return pending

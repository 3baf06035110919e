"""The kernel network stack: segmentation, TX/RX protocol processing.

Transmit runs in the sending task's kernel context (as in Linux, where
``send()`` does protocol processing on the caller's time).  Receive runs
in interrupt context (``BAND_IRQ``), which preempts whatever task is
running — the "system-level asynchrony" the paper identifies as the
reason user-level monitors mis-attribute resource usage.

Every packet crossing a layer fires the corresponding static tracepoint;
per-layer timestamps are backfilled from the contiguous CPU segment the
processing ran in, so per-layer latencies (Figure 1's L values) are exact.
"""

import math

from repro.netsim.packet import Packet
from repro.ossim.task import BAND_IRQ
from repro.ossim import tracepoints as tp

_TX_EVENTS = (tp.NET_TX_SOCK, tp.NET_TX_IP, tp.NET_TX_DRIVER)
_RX_EVENTS = (tp.NET_RX_DRIVER, tp.NET_RX_IP, tp.NET_RX_TRANSPORT, tp.SOCK_ENQUEUE)


class NetStack:
    def __init__(self, kernel, nic, costs):
        self.kernel = kernel
        self.nic = nic
        self.costs = costs
        nic.rx_handler = self._rx_interrupt
        self.tx_packets = 0
        self.rx_packets = 0
        self.rx_no_socket = 0

    # ------------------------------------------------------------------
    # transmit path (generator; runs inside the sender's syscall)
    # ------------------------------------------------------------------

    def tx_message(self, task, sock, message, frame_batch=1):
        """Segment ``message`` and push it through flow control + NIC.

        ``frame_batch`` > 1 aggregates that many MTU frames into one
        simulated packet (costs scaled by frame count) — a documented
        simulation speed knob for high-rate streams.
        """
        costs = self.costs
        tracepoints = self.kernel.tracepoints
        chunk_limit = costs.mtu * frame_batch
        remaining = message.size
        seq = 0
        message.src = sock.local
        message.dst = sock.remote
        if message.created_at is None:
            message.created_at = self.kernel.sim.now
        while True:
            size = min(chunk_limit, remaining)
            remaining -= size
            last = remaining == 0
            frames = max(1, math.ceil(size / costs.mtu))
            packet = Packet(
                sock.local,
                sock.remote,
                size,
                kind=message.kind,
                message=message if last else None,
                seq=seq,
                is_last=last,
                frames=frames,
                meta=message.meta,
            )
            # A grant or ring slot that is already triggered succeeded
            # (only pending waiters can fail), so the task runs on.
            grant = sock.tx_credits.acquire(max(size, 1))
            if not grant.triggered:
                # Flow-control stall: the receiver's kernel buffer is full.
                yield from self.kernel.block_wait(task, grant, reason="sndbuf")
            # Probes fire per wire frame in the real system; an aggregated
            # packet charges the per-frame monitoring cost `frames` times.
            base = costs.tx_packet_cost(size, frames)
            cost, probe, analyzer, _ = tracepoints.site(_TX_EVENTS)
            cost = base + cost * frames
            attribution = None
            if self.kernel.ledger is not None:
                attribution = ("netstack", base, probe * frames, analyzer * frames)
            start, end = yield self.kernel.cpu.submit(
                task, cost, "kernel", attribution=attribution
            )
            self._fire_tx_events(packet, start, end, sock)
            self.tx_packets += 1
            sock.bytes_sent += size
            ring = self.nic.enqueue(packet)
            if not ring.triggered:
                yield from self.kernel.block_wait(task, ring, reason="txring")
            seq += 1
            if last:
                break
        sock.messages_sent += 1

    def _fire_tx_events(self, packet, start, end, sock):
        tracepoints = self.kernel.tracepoints
        # No callback subscribes or unsubscribes during a fan-out, so
        # the types enabled now stay enabled for the whole packet.
        enabled = tracepoints.site(_TX_EVENTS)[3]
        if not enabled:
            return
        costs = self.costs
        base = costs.net_tx_sock + costs.net_tx_ip + costs.net_tx_driver
        span = end - start
        # One payload for every layer's event of this packet.
        fields = self._packet_fields(packet)
        fields["sock_pid"] = sock.owner_pid or 0
        # Backfill layer boundaries proportionally across the segment.
        t_sock = start + span * (costs.net_tx_sock / base) if base else end
        t_ip = start + span * ((costs.net_tx_sock + costs.net_tx_ip) / base) if base else end
        emit = tracepoints.emit
        for etype, sim_ts in zip(_TX_EVENTS, (t_sock, t_ip, end)):
            if etype in enabled:
                emit(etype, sim_ts, fields)

    # ------------------------------------------------------------------
    # receive path (interrupt context)
    # ------------------------------------------------------------------

    def _rx_interrupt(self, packet):
        costs = self.costs
        tracepoints = self.kernel.tracepoints
        frames = packet.frames
        base = costs.rx_packet_cost(packet.size, frames)
        cost, probe, analyzer, _ = tracepoints.site(_RX_EVENTS)
        cost = base + cost * frames
        attribution = None
        if self.kernel.ledger is not None:
            attribution = ("netstack", base, probe * frames, analyzer * frames)
        done = self.kernel.cpu.submit(
            None, cost, "kernel", band=BAND_IRQ, attribution=attribution
        )
        done.add_callback(lambda grant: self._rx_complete(packet, grant.value))

    def _rx_complete(self, packet, span):
        start, end = span
        self.rx_packets += 1
        kernel = self.kernel
        sock = kernel.demux(packet.dst.port, packet.src)
        self._fire_rx_events(packet, start, end, sock)
        if sock is None:
            self.rx_no_socket += 1
            return
        if packet.is_last and packet.message is not None and packet.message.kind == "_fin":
            # Connection teardown: EOF ordered behind all in-flight data.
            sock.state = "closed"
            sock.rx_queue.put(None)
            return
        sock.buffer_bytes(packet.size)
        if packet.is_last and packet.message is not None:
            sock.complete_message(packet.message, kernel.sim.now)

    def _fire_rx_events(self, packet, start, end, sock):
        tracepoints = self.kernel.tracepoints
        # As on transmit: the enabled types hold for the whole fan-out.
        enabled = tracepoints.site(_RX_EVENTS)[3]
        if not enabled:
            return
        costs = self.costs
        base = costs.net_rx_driver + costs.net_rx_ip + costs.net_rx_transport
        span = end - start
        fields = self._packet_fields(packet)
        if sock is not None:
            fields["sock_pid"] = sock.owner_pid or 0
            fields["rx_buffered"] = sock.rx_buffered + packet.size
            fields["rx_queue_depth"] = sock.rx_queue_depth
        t_driver = start + span * (costs.net_rx_driver / base) if base else end
        t_ip = start + span * ((costs.net_rx_driver + costs.net_rx_ip) / base) if base else end
        emit = tracepoints.emit
        for etype, sim_ts in zip(_RX_EVENTS, (t_driver, t_ip, end, end)):
            if etype in enabled:
                emit(etype, sim_ts, fields)

    @staticmethod
    def _packet_fields(packet):
        src = packet.src
        dst = packet.dst
        fields = {
            "src_ip": src[0],
            "src_port": src[1],
            "dst_ip": dst[0],
            "dst_port": dst[1],
            "size": packet.size,
            "frames": packet.frames,
            "seq": packet.seq,
            "is_last": packet.is_last,
            "msg_kind": packet.kind,
            "packet_id": packet.packet_id,
        }
        # ARM-style in-band correlation token (Application Response
        # Measurement, the paper's reference [5]): applications that opt
        # in stamp their messages; the monitor can then pair interleaved
        # requests exactly.
        meta = packet.meta
        if meta is not None:
            arm = meta.get("arm_id")
            if arm is not None:
                fields["arm_id"] = arm
        return fields

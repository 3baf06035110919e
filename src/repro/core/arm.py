"""ARM-assisted interaction extraction for interleaved request streams.

The paper's black-box message extraction assumes strict request/response
alternation per flow and states the escape hatch explicitly: "Multiple
requests may interleave, in which case domain-specific knowledge and/or
ARM support [5] would be necessary."  This module implements that
escape hatch: applications instrumented per the Application Response
Measurement standard stamp each transaction with a correlation token
(``meta["arm_id"]``), which travels in-band with the packets.  The
:class:`ArmTracker` pairs request and response by token instead of by
direction flips, so pipelined/interleaved flows are measured exactly.

Drop-in alternative to
:class:`~repro.core.interactions.InteractionTracker`: same observation
API, same :class:`~repro.core.interactions.InteractionRecord` output.
Packets without a token fall back to a delegate direction-flip tracker
when one is provided.
"""

from repro.core.interactions import InteractionRecord, MessageStats


class _OpenTransaction:
    __slots__ = ("request", "response", "first_rx")

    def __init__(self):
        self.request = None
        self.response = None
        self.first_rx = None


class ArmTracker:
    """Pairs interactions by ARM correlation token."""

    def __init__(self, node_name, local_ip, emit, idle_timeout=1.0,
                 fallback=None):
        self.node_name = node_name
        self.local_ip = local_ip
        self.emit = emit
        self.idle_timeout = idle_timeout
        self.fallback = fallback
        self.open = {}  # (flow_key, arm) -> _OpenTransaction
        self._last_activity = {}
        self.interactions_emitted = 0
        self.messages_closed = 0
        self.unpaired_messages = 0
        self.untagged_packets = 0

    # Compatibility with InteractionTracker's consumer (the LPA).
    @property
    def flows(self):
        return self._last_activity

    # ------------------------------------------------------------------

    def _key(self, src, dst, arm):
        flow = (src, dst) if src <= dst else (dst, src)
        return (flow, arm)

    def note_rx_start(self, src, dst, ts, arm=None):
        if arm is None:
            if self.fallback is not None:
                self.fallback.note_rx_start(src, dst, ts)
            return
        entry = self.open.get(self._key(src, dst, arm))
        if entry is None:
            entry = self.open[self._key(src, dst, arm)] = _OpenTransaction()
        if entry.first_rx is None:
            entry.first_rx = ts

    def on_packet(self, src, dst, ts, size, kind=None, pid=None, sampler=None,
                  arm=None, is_last=False):
        if arm is None:
            self.untagged_packets += 1
            if self.fallback is not None:
                self.fallback.on_packet(
                    src, dst, ts, size, kind=kind, pid=pid, sampler=sampler
                )
            return
        key = self._key(src, dst, arm)
        entry = self.open.get(key)
        if entry is None:
            entry = self.open[key] = _OpenTransaction()
        self._last_activity[key] = ts
        inbound = dst[0] == self.local_ip
        side = entry.request if inbound else entry.response
        if side is None:
            side = MessageStats(src, dst, ts, kind=kind)
            if sampler is not None:
                side.task_sample = sampler()
            if inbound:
                entry.request = side
                if entry.first_rx is not None:
                    side.first_rx_ts = entry.first_rx
            else:
                entry.response = side
        side.extend(ts, size, pid=pid)
        if is_last:
            self.messages_closed += 1
            # ARM marks transaction boundaries: the response's final
            # segment completes the pair.
            if not inbound and entry.request is not None:
                self._emit(key, entry)

    def on_deliver(self, src, dst, ts, task_sample=None, arm=None):
        if arm is None:
            if self.fallback is not None:
                self.fallback.on_deliver(src, dst, ts, task_sample=task_sample)
            return
        entry = self.open.get(self._key(src, dst, arm))
        if entry is not None and entry.request is not None:
            if entry.request.deliver_ts is None:
                entry.request.deliver_ts = ts
                entry.request.task_sample = task_sample

    # ------------------------------------------------------------------

    def _emit(self, key, entry):
        del self.open[key]
        self._last_activity.pop(key, None)
        record = InteractionRecord(self.node_name, entry.request, entry.response)
        self.interactions_emitted += 1
        self.emit(record)

    def flush(self):
        stale = list(self.open)
        for key in stale:
            entry = self.open[key]
            if entry.request is not None and entry.response is not None:
                self._emit(key, entry)
            else:
                self.unpaired_messages += 1
                del self.open[key]
                self._last_activity.pop(key, None)
        if self.fallback is not None:
            self.fallback.flush()

    def expire_idle(self, now):
        stale = [
            key for key, last in self._last_activity.items()
            if now - last > self.idle_timeout
        ]
        for key in stale:
            self.open.pop(key, None)
            del self._last_activity[key]
            self.unpaired_messages += 1
        if self.fallback is not None:
            self.fallback.expire_idle(now)
        return len(stale)

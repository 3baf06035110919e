"""Raw event capture and offline replay.

The paper positions SysProf against *offline* black-box analysis
(Aguilera et al. [2]): online in-kernel analysis trades some fidelity for
timeliness.  This module lets a deployment have both: an
:class:`EventLog` subscribes to raw Kprof events and records them (with
bounded memory or to a JSON-lines file), and :func:`replay` runs any
tracker/analyzer over a recorded stream afterwards — auditing, debugging
the analyzers themselves, or re-analyzing with different parameters
without re-running the system.
"""

import json
from collections import deque

from repro.core.events import MonEvent
from repro.core.interactions import InteractionTracker
from repro.ossim.tracepoints import ALL_EVENT_TYPES
from repro.ossim import tracepoints as tp


class EventLog:
    """Records raw monitoring events from one node's Kprof."""

    def __init__(self, kprof, etypes=None, capacity=100000, cost=0.05e-6):
        self.kprof = kprof
        self.etypes = list(etypes) if etypes is not None else list(ALL_EVENT_TYPES)
        self.events = deque(maxlen=capacity)
        self.cost = cost
        self.recorded = 0
        self._subscription = None

    def start(self):
        if self._subscription is None:
            self._subscription = self.kprof.subscribe(
                self.etypes, self._record, cost=self.cost, name="event-log",
            )
        return self

    def stop(self):
        if self._subscription is not None:
            self.kprof.unsubscribe(self._subscription)
            self._subscription = None

    def _record(self, event):
        self.recorded += 1
        self.events.append(event)

    def __len__(self):
        return len(self.events)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path):
        """Write the log as JSON lines (one event per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for event in self.events:
                out.write(json.dumps({
                    "etype": event.etype,
                    "ts": event.ts,
                    "node": event.node,
                    "fields": event.fields,
                }) + "\n")
        return path

    @staticmethod
    def load(path):
        """Read a saved log back into a list of :class:`MonEvent`."""
        events = []
        with open(path, "r", encoding="utf-8") as dump:
            for line in dump:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                events.append(MonEvent(
                    record["etype"], record["ts"], record["node"],
                    record["fields"],
                ))
        return events


def replay_interactions(events, node_name, local_ip):
    """Re-run the interaction extraction over a recorded event stream.

    Returns the list of :class:`~repro.core.interactions.InteractionRecord`
    the online LPA would have produced (minus task-accounting samples,
    which exist only at capture time — kernel_wait and timing metrics are
    reconstructed exactly).
    """
    emitted = []
    tracker = InteractionTracker(node_name, local_ip, emitted.append)
    for event in sorted(events, key=lambda e: e.ts):
        fields = event.fields
        if event.etype == tp.NET_RX_DRIVER:
            tracker.note_rx_start(
                (fields["src_ip"], fields["src_port"]),
                (fields["dst_ip"], fields["dst_port"]), event.ts,
            )
        elif event.etype == tp.SOCK_ENQUEUE or event.etype == tp.NET_TX_DRIVER:
            tracker.on_packet(
                (fields["src_ip"], fields["src_port"]),
                (fields["dst_ip"], fields["dst_port"]),
                event.ts, fields["size"],
                kind=fields.get("msg_kind"), pid=fields.get("sock_pid"),
            )
        elif event.etype == tp.SOCK_DELIVER:
            tracker.on_deliver(
                (fields["src_ip"], fields["src_port"]),
                (fields["dst_ip"], fields["dst_port"]), event.ts,
            )
    tracker.flush()
    # Fill the timing metrics the LPA derives from raw timestamps.
    for record in emitted:
        request = record.request
        first_rx = (
            request.first_rx_ts if request.first_rx_ts is not None
            else request.first_ts
        )
        if request.deliver_ts is not None:
            record.kernel_wait = max(0.0, request.deliver_ts - first_rx)
    return emitted

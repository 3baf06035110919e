"""Span tracing on simulated time, exported as Chrome trace-event JSON.

Records the monitoring pipeline's lifecycle moments — request/response
interactions (complete ``X`` spans), probe firings, per-CPU buffer
switches, and dissemination publishes (instant ``i`` events) — and
renders them in the Chrome trace-event format (the JSON dialect
``chrome://tracing`` and Perfetto load): one *pid* per simulated node,
one *tid* per simulated task, timestamps in microseconds of simulated
time.

Disabled-path discipline: instrumented call sites check the module-level
:data:`enabled` flag inline (``if tracer.enabled: ...``) so the disabled
path costs one attribute read — no allocation, no function call.  Like
the ledger, the tracer is pure host-side observation: it charges no
simulated CPU and cannot perturb event order, so enabling it leaves
same-seed trace hashes byte-identical.

Usage::

    from repro.observability import tracer
    span = tracer.install()
    ...  # run a workload
    span.export("trace.json")     # load in ui.perfetto.dev
    tracer.uninstall()
"""

import json

#: Inline guard read by instrumented hot paths.  True iff a tracer is
#: installed; never set this directly — use :func:`install`.
enabled = False

_active = None

_US = 1e6  # seconds of simulated time -> trace microseconds

# tid for events not tied to a task (interrupt context, buffer switches).
KERNEL_TID = 0


def install():
    """Install a fresh :class:`SpanTracer` and flip :data:`enabled`.
    Returns the tracer."""
    global enabled, _active
    tracer = SpanTracer()
    _active = tracer
    enabled = True
    return tracer


def uninstall():
    global enabled, _active
    enabled = False
    _active = None


def active():
    """The installed :class:`SpanTracer`, or ``None``."""
    return _active


class SpanTracer:
    """Collects trace events; renders/validates Chrome trace JSON.

    ``max_events`` bounds memory on long runs: past it, new events are
    counted in :attr:`dropped` instead of stored (the export notes the
    truncation in its metadata).
    """

    def __init__(self, max_events=500_000):
        self.max_events = max_events
        self.dropped = 0
        self._events = []  # (ts_us, ph, node, tid, name, cat, dur_us, args)
        self._pids = {}  # node -> pid
        self._threads = {}  # (node, tid) -> thread name

    def __len__(self):
        return len(self._events)

    # -- recording ------------------------------------------------------

    def _pid(self, node):
        pid = self._pids.get(node)
        if pid is None:
            pid = self._pids[node] = len(self._pids) + 1
        return pid

    def name_thread(self, node, tid, name):
        """Label a (node, task) lane; shown as the thread name in Perfetto."""
        self._threads.setdefault((node, tid), name)

    def _push(self, event):
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    def complete(self, node, tid, name, category, start, duration, args=None):
        """A ``X`` (complete) span: ``start``/``duration`` in sim seconds."""
        self._push((start * _US, "X", node, tid, name, category,
                    max(0.0, duration) * _US, args))

    def instant(self, node, tid, name, category, ts, args=None):
        """An ``i`` (instant) event at sim time ``ts``."""
        self._push((ts * _US, "i", node, tid, name, category, None, args))

    # -- pipeline-specific conveniences (called from instrumented sites) --

    def probe(self, node, etype, pid, ts):
        self.instant(node, pid or KERNEL_TID, etype, "probe", ts)

    def buffer_switch(self, node, buffer_name, ts, lost=0):
        args = {"lost": lost} if lost else None
        self.instant(node, KERNEL_TID, "buffer-switch " + buffer_name,
                     "analyzer", ts, args)

    def publish(self, node, pid, channel, nbytes, kind, ts):
        self.instant(node, pid or KERNEL_TID, "publish " + channel,
                     "dissemination", ts, {"bytes": nbytes, "kind": kind})

    def interaction(self, node, record, clock=None):
        """A request/response lifecycle from an InteractionLPA record.

        Record timestamps are node-*local* (clock-skewed); ``clock``
        converts them back to simulated time so the trace's single
        timeline stays monotone and non-negative."""
        name = record.request_class or "interaction"
        start, end = record.start_ts, record.end_ts
        if clock is not None:
            start = clock.sim_time(start)
            end = clock.sim_time(end)
        self.complete(
            node, record.server_pid or KERNEL_TID, name, "interaction",
            start, end - start,
            args={
                "interaction_id": record.interaction_id,
                "client": "{}:{}".format(*record.client),
                "server": "{}:{}".format(*record.server),
                "req_bytes": record.request.bytes,
                "resp_bytes": record.response.bytes,
            },
        )

    # -- export ---------------------------------------------------------

    def chrome_trace(self):
        """The trace as a Chrome trace-event JSON object (dict)."""
        events = []
        # Assign every involved node a pid up front (sorted for a stable
        # numbering) so the process_name metadata covers all of them.
        for node in sorted(
            {event[2] for event in self._events}
            | {node for node, _tid in self._threads}
        ):
            self._pid(node)
        for node in sorted(self._pids):
            pid = self._pids[node]
            events.append({
                "ph": "M", "pid": pid, "tid": 0, "ts": 0,
                "name": "process_name", "args": {"name": node},
            })
        for (node, tid), name in sorted(self._threads.items()):
            events.append({
                "ph": "M", "pid": self._pid(node), "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": name},
            })
        for ts, ph, node, tid, name, category, dur, args in sorted(
            self._events, key=lambda event: (event[0], event[3], event[4])
        ):
            event = {
                "ph": ph, "pid": self._pid(node), "tid": tid,
                "ts": ts, "name": name, "cat": category,
            }
            if ph == "X":
                event["dur"] = dur
            if ph == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = args
            events.append(event)
        metadata = {"simulated": True, "dropped_events": self.dropped}
        return {"traceEvents": events, "otherData": metadata}

    def export(self, path):
        """Write the Chrome trace JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.chrome_trace(), out)
        return path

    def stats(self):
        return {
            "events": len(self._events),
            "dropped": self.dropped,
            "nodes": sorted(self._pids),
        }


def validate_chrome_trace(doc):
    """Validate a Chrome trace-event JSON object.

    Raises ``ValueError`` on the first violation; returns the number of
    data (non-metadata) events otherwise.  Checks: the ``traceEvents``
    envelope, required keys per phase, numeric non-negative timestamps,
    non-negative ``X`` durations, per-(pid, tid) matched ``B``/``E``
    nesting, and globally sorted data-event timestamps (metadata ``M``
    events are exempt, as in traces Chrome itself emits).
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a trace-event JSON object (no traceEvents)")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    stacks = {}  # (pid, tid) -> [names]
    last_ts = None
    counted = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError("event {} is not an object".format(index))
        for key in ("ph", "pid", "tid", "ts", "name"):
            if key not in event:
                raise ValueError("event {} missing {!r}".format(index, key))
        ph = event["ph"]
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError("event {} has bad ts {!r}".format(index, ts))
        if ph == "M":
            continue
        counted += 1
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                "event {} out of order: ts {} < {}".format(index, ts, last_ts)
            )
        last_ts = ts
        lane = (event["pid"], event["tid"])
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError("event {} has bad dur {!r}".format(index, dur))
        elif ph == "B":
            stacks.setdefault(lane, []).append(event["name"])
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                raise ValueError("event {}: E without matching B".format(index))
            stack.pop()
        elif ph not in ("i", "I", "C"):
            raise ValueError("event {} has unsupported ph {!r}".format(index, ph))
    for lane, stack in stacks.items():
        if stack:
            raise ValueError(
                "unclosed B events on pid/tid {}: {}".format(lane, stack)
            )
    return counted

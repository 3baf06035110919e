"""One analyzer tier: aggregation state, queries, and the server.

The original :class:`~repro.core.gpa.GlobalPerformanceAnalyzer` baked
ingest, sketch storage, clock correction, and queries into one class
that assumed it was the cluster's single global aggregation point.  The
federation tree (ROADMAP item 1) needs the same machinery at every
tier — rack-level zone GPAs and the root alike — so it lives here, in
:class:`AnalyzerTier`: interaction history, class summaries, node-stats
streams, the windowed :class:`~repro.observability.sketches.SketchStore`,
the clock-corrected query API over all of it, and the server around it
(channel subscriptions, the listening task, per-connection frame and
descriptor decode with simulated-CPU charges, kill/restart semantics
with cumulative counters).

Clock correction (:meth:`AnalyzerTier.to_reference`) and a node's
telemetry age (:meth:`AnalyzerTier.staleness`) are computed here and
nowhere else; :meth:`repro.core.toolkit.SysProf.tier_of` names the tier
that holds a node's raw records.

``GlobalPerformanceAnalyzer`` and ``ZoneGpa`` are thin subclasses.
"""


import bisect
from collections import deque
from operator import itemgetter

from repro.core import encoding
from repro.core.channels import SYSPROF_PORT_BASE
from repro.core.cpa import CPA_FORMAT
from repro.core.lpa import (
    CLASS_SUMMARY_FORMAT,
    INTERACTION_FORMAT,
    NODE_STATS_FORMAT,
    SKETCH_FORMAT,
    SYSCALL_STATS_FORMAT,
)
from repro.observability.sketches import SketchStore

#: Record formats a tier subscribes to, ``name -> (field, type)``
#: pairs, in channel-subscription order.  A tier reads a record of a
#: known name by these fields, so a frame whose format reuses a name
#: with other fields is a decode error; other names pass through.
TIER_FORMATS = dict((
    INTERACTION_FORMAT,
    CLASS_SUMMARY_FORMAT,
    NODE_STATS_FORMAT,
    CPA_FORMAT,
    SYSCALL_STATS_FORMAT,
    SKETCH_FORMAT,
))

_INTERACTION_FIELDS = tuple(name for name, _ in INTERACTION_FORMAT[1])

#: The keys of an interaction record: its decoded fields, then its start
#: and end on the reference timescale.  A tier stores each interaction
#: as the tuple of these values (256 B, where a 25-key dict takes about
#: 830 B, and interactions are most of what a monitored run retains);
#: :meth:`AnalyzerTier.query_interactions` builds the dicts it returns.
INTERACTION_KEYS = _INTERACTION_FIELDS + ("start_ref", "end_ref")
_NODE, _START_TS, _END_TS, _REQUEST_CLASS, _CLIENT_IP, _SERVER_IP, _START_REF = map(
    INTERACTION_KEYS.index,
    ("node", "start_ts", "end_ts", "request_class", "client_ip", "server_ip", "start_ref"),
)
#: Seconds of clock-correction error :meth:`AnalyzerTier.correlate_paths`
#: tolerates at a path's boundaries.
PATH_SLACK = 2e-3
#: :meth:`AnalyzerTier.node_summary`'s means: ``(key, field)`` pairs.
_NODE_SUMMARY_MEANS = (
    ("mean_total", "total_latency"),
    ("mean_kernel_time", "kernel_time"),
    ("mean_kernel_wait", "kernel_wait"),
    ("mean_user_time", "user_time"),
    ("mean_io_blocked", "io_blocked"),
)


class CausalPath:
    """A correlated end-to-end request: the upstream (client-facing)
    interaction plus the downstream interactions nested inside it."""

    __slots__ = ("upstream", "downstream")

    def __init__(self, upstream, downstream):
        self.upstream = upstream
        self.downstream = downstream

    @property
    def total_latency(self):
        return self.upstream["total_latency"]

    @property
    def downstream_latency(self):
        return sum(record["total_latency"] for record in self.downstream)

    @property
    def residual_latency(self):
        """Time not accounted to any downstream node: network + local work."""
        return self.total_latency - self.downstream_latency

    def breakdown(self):
        return {
            "upstream_node": self.upstream["node"],
            "total": self.total_latency,
            "upstream_user": self.upstream["user_time"],
            "upstream_kernel": self.upstream["kernel_time"],
            "downstream": [
                {
                    "node": record["node"],
                    "total": record["total_latency"],
                    "kernel": record["kernel_time"],
                    "user": record["user_time"],
                }
                for record in self.downstream
            ],
            "residual": self.residual_latency,
        }


class AnalyzerTier:
    """One aggregation tier (root GPA or zone GPA).

    Holds the tier's records and answers queries over them, and runs the
    server that feeds them: the listening task, one handler (and one
    frame decoder) per connection, and kill/restart semantics.
    """

    task_name = "gpa"
    conn_task_name = "gpa-conn"
    #: Small per-record analysis cost charged at this tier.
    per_record_cost = 2e-6
    #: Records kept per history deque.
    history = 50000

    def __init__(self, node, hub, clock_table=None, port=SYSPROF_PORT_BASE,
                 stale_threshold=1.0, channel_prefix="sysprof/"):
        self.node = node
        self.hub = hub
        self.port = port
        self.channel_prefix = channel_prefix
        # Default quiet-time before stale_nodes() suspects a node; also
        # the fallback threshold for staleness SLO rules.
        self.stale_threshold = stale_threshold
        self.clock_table = clock_table
        self.interactions = deque(maxlen=self.history)
        self.class_summaries = deque(maxlen=self.history)
        self.cpa_metrics = deque(maxlen=self.history)
        self.syscall_summaries = deque(maxlen=self.history)
        self.node_stats = {}  # node -> deque of samples
        # Windowed quantile sketches merged from sysprof.sketch rows.
        self.sketches = SketchStore()
        # Optional DiagnosisEngine; the engine sets this on every tier it
        # watches, and ingest() then offers every batch to it.
        self.diagnosis = None
        # Ingest counters are cumulative across restarts, standing in for
        # the operator's long-lived view of the analyzer.
        self.records_received = 0
        self.frames_received = 0
        self.decode_errors = 0
        self.bytes_received = 0  # tier ingress: every blob off the wire
        self.queries_served = 0
        self._server_task = None
        self._conn_tasks = []
        self._conn_socks = []
        self.restarts = 0
        self._stopped = False

    # -- ingest + time correction --------------------------------------

    def ingest_rows(self, fmt, rows):
        """Frame ingest: interaction rows are stored as decoded; every
        other format's rows become the stored record dicts (one ``zip``
        per record)."""
        if fmt.name != "sysprof.interaction":
            names = fmt.names
            rows = [dict(zip(names, row)) for row in rows]
        self.ingest(fmt.name, rows)

    def ingest(self, format_name, records):
        """Store one decoded batch; returns the ``(record, sketch)`` pairs
        a ``sysprof.sketch`` batch stored (None for other formats).  The
        sketches are the store's windows: read, don't change.  A sketch
        row the store refuses (runs, ``alpha`` or ``base_index`` that no
        sketch could have sent) counts in ``decode_errors``; the batch's
        other rows are stored.  Interactions may come as dicts or as rows
        in field order; either is stored as the tuple of
        :data:`INTERACTION_KEYS` values."""
        self.records_received += len(records)
        stored = None
        if format_name == "sysprof.interaction":
            to_reference = self.to_reference
            append = self.interactions.append
            for record in records:
                if isinstance(record, dict):
                    record = tuple(map(record.__getitem__, _INTERACTION_FIELDS))
                node = record[_NODE]
                append(record + (to_reference(node, record[_START_TS]),
                                 to_reference(node, record[_END_TS])))
        elif format_name == "sysprof.class_summary":
            self.class_summaries.extend(records)
        elif format_name == "sysprof.nodestats":
            for record in records:
                history = self.node_stats.setdefault(record["node"], deque(maxlen=512))
                history.append(record)
        elif format_name == "sysprof.cpa":
            self.cpa_metrics.extend(records)
        elif format_name == "sysprof.syscalls":
            self.syscall_summaries.extend(records)
        elif format_name == "sysprof.sketch":
            store = self.sketches.ingest
            to_reference = self.to_reference
            stored = []
            for record in records:
                try:
                    end = to_reference(record["node"], record["window_end"])
                    stored.append((record, store(record, end)))
                except ValueError:
                    self.decode_errors += 1
        if self.diagnosis is not None:
            self.diagnosis.on_ingest(format_name, records)
        return stored

    def to_reference(self, node, ts):
        """``node``'s local timestamp ``ts`` on the reference timescale
        (unchanged when the clock table does not know ``node``)."""
        table = self.clock_table
        if table is not None and table.known(node):
            return table.to_reference(node, ts)
        return ts

    def release_member(self, node):
        """An adopted member returned to its own parent (or moved on):
        stop tracking its node-stats stream so it cannot go ghost-stale
        here; interaction/summary history ages out of the deques."""
        self.node_stats.pop(node, None)

    # -- queries --------------------------------------------------------

    def query_interactions(self, node=None, request_class=None, since=None,
                           client_ip=None, server_ip=None, limit=None):
        """The stored interactions that match every given filter, oldest
        first (only the newest ``limit`` of them when it is given), each
        as a fresh dict keyed by :data:`INTERACTION_KEYS`."""
        matches = []
        for record in self.interactions:
            if node is not None and record[_NODE] != node:
                continue
            if request_class is not None and record[_REQUEST_CLASS] != request_class:
                continue
            if since is not None and record[_START_REF] < since:
                continue
            if client_ip is not None and record[_CLIENT_IP] != client_ip:
                continue
            if server_ip is not None and record[_SERVER_IP] != server_ip:
                continue
            matches.append(record)
        if limit is not None:
            matches = matches[-limit:] if limit else []
        return [dict(zip(INTERACTION_KEYS, record)) for record in matches]

    def node_summary(self, node):
        """Aggregate interaction metrics observed at one node."""
        records = [record for record in self.interactions if record[_NODE] == node]
        if not records:
            return {"node": node, "count": 0}
        count = len(records)
        summary = {"node": node, "count": count}
        for key, field in _NODE_SUMMARY_MEANS:
            index = INTERACTION_KEYS.index(field)
            summary[key] = sum(record[index] for record in records) / count
        return summary

    def server_load(self, node):
        """Recent load of ``node`` from its nodestats stream.

        Returns CPU utilization over the last sampling window plus queue
        depths — the signal RA-DWCS uses to pick the lightly-loaded server.
        """
        history = self.node_stats.get(node)
        if not history or len(history) < 2:
            return None
        last, prev = history[-1], history[-2]
        span = last["ts"] - prev["ts"]
        if span <= 0:
            return None
        return {
            "node": node,
            "cpu_utilization": max(0.0, (last["cpu_busy"] - prev["cpu_busy"]) / span),
            "run_queue": last["run_queue"],
            "rx_backlog_bytes": last["rx_backlog_bytes"],
            "pending_interactions": last["pending_interactions"],
            "ts": last["ts"],
        }

    def staleness(self, node, now_ref):
        """Seconds from ``node``'s newest nodestats sample (on the
        reference timescale) to reference-time ``now_ref``, never
        negative; ``None`` when this tier never heard from ``node``."""
        history = self.node_stats.get(node)
        if not history:
            return None
        return max(0.0, now_ref - self.to_reference(node, history[-1]["ts"]))

    def stale_nodes(self, now_ref, threshold=None):
        """Failure suspicion: monitored nodes whose telemetry went quiet.

        "A typical problem in these environments is to detect failures
        and performance bottlenecks" (paper §3.2) — a node whose
        dissemination daemon has not published a nodestats sample within
        ``threshold`` (default :attr:`stale_threshold`) of reference-time
        ``now_ref`` is suspected down (crashed node, wedged kernel, or
        partitioned network).  In a federation a "node" may be a zone
        pseudo-node (``zone:<name>``) whose forwarder went quiet.

        Returns ``{node: seconds_since_last_sample}``.
        """
        if threshold is None:
            threshold = self.stale_threshold
        suspects = {}
        for node in self.node_stats:
            age = self.staleness(node, now_ref)
            if age is not None and age > threshold:
                suspects[node] = age
        return suspects

    def correlate_paths(self, upstream_node, downstream_nodes):
        """Build causal paths: downstream interactions nested (in corrected
        time) inside each upstream interaction.

        The upstream node is the one facing the original client (the NFS
        proxy, the web front-end); downstream nodes serve it.
        :data:`PATH_SLACK` tolerates clock-correction error at the
        containment boundaries.
        """
        downstream_set = set(downstream_nodes)
        downstream = [
            dict(zip(INTERACTION_KEYS, row))
            for row in sorted(
                (row for row in self.interactions if row[_NODE] in downstream_set),
                key=itemgetter(_START_REF),
            )
        ]
        starts = [record["start_ref"] for record in downstream]
        paths = []
        for row in self.interactions:
            if row[_NODE] != upstream_node:
                continue
            upstream = dict(zip(INTERACTION_KEYS, row))
            lo = bisect.bisect_left(starts, upstream["start_ref"] - PATH_SLACK)
            nested = []
            for record in downstream[lo:]:
                if record["start_ref"] > upstream["end_ref"] + PATH_SLACK:
                    break
                if record["end_ref"] <= upstream["end_ref"] + PATH_SLACK:
                    nested.append(record)
            paths.append(CausalPath(upstream, nested))
        return paths

    def stats(self):
        """The counters every tier reports; subclasses add their own."""
        return {
            "records_received": self.records_received,
            "interactions": len(self.interactions),
            "class_summaries": len(self.class_summaries),
            "nodes_reporting": sorted(self.node_stats),
            "frames_received": self.frames_received,
            "decode_errors": self.decode_errors,
            "ingress_bytes": self.bytes_received,
            "sketch_rows": self.sketches.rows_ingested,
            "sketch_series": len(self.sketches.series),
            "queries_served": self.queries_served,
            "restarts": self.restarts,
        }

    # -- wiring ---------------------------------------------------------

    def channels(self):
        """The channels this tier subscribes to."""
        return [self.channel_prefix + fmt for fmt in TIER_FORMATS]

    def subscribe_all(self):
        """Subscribe this tier to its SysProf channels."""
        for channel in self.channels():
            self.hub.subscribe(channel, self.node.name, self.port)

    def start(self):
        if self._server_task is None:
            self._server_task = self.node.spawn(self.task_name, self._server)
            self._server_task.category = "analyzer"
            self._start_aux()
        return self._server_task

    def _start_aux(self):
        """Hook: subclasses spawn their auxiliary tasks (dumper, forwarder)."""

    def stop(self):
        self._stopped = True

    def kill(self, reason="fault-injection"):
        """Crash the tier process: server, auxiliary tasks, and every
        connection handler die; the listening port closes; established
        sockets reset so publishing daemons observe the failure instead
        of blocking on a dead peer's flow-control window."""
        for task in [self._server_task] + self._aux_tasks() + self._conn_tasks:
            if task is not None:
                task.kill(reason)
        self.node.kernel.close_listener(self.port)
        for sock in self._conn_socks:
            sock.reset()
        self._conn_tasks = []
        self._conn_socks = []
        self._server_task = None
        self._on_killed()

    def _aux_tasks(self):
        """Hook: auxiliary tasks to kill alongside the server."""
        return []

    def _on_killed(self):
        """Hook: subclass cleanup after a kill (clear aux task refs)."""

    def restart(self):
        """Respawn after :meth:`kill` as a fresh process would come up.

        Decoder state and in-memory history died with the old process —
        formats are re-learned from the descriptors daemons re-send on
        their fresh connections.  Ingest counters stay cumulative.
        """
        self.interactions.clear()
        self.class_summaries.clear()
        self.cpa_metrics.clear()
        self.syscall_summaries.clear()
        self.node_stats.clear()
        self.sketches.clear()
        self.subscribe_all()  # idempotent; re-asserts hub registration
        self.restarts += 1
        return self.start()

    # -- server ---------------------------------------------------------

    def _server(self, ctx):
        lsock = yield from ctx.listen(self.port)
        while not self._stopped:
            sock = yield from ctx.accept(lsock)
            self._conn_socks.append(sock)
            conn_task = ctx.spawn(self.conn_task_name, self._handler, sock)
            conn_task.category = "analyzer"
            self._conn_tasks.append(conn_task)

    def _handler(self, ctx, sock):
        # Decode state is connection-scoped.  Every publisher numbers its
        # format descriptors independently (id 1 is whatever it registered
        # first), so two streams must never share an id table: a
        # reparented daemon's descriptors would clobber the ids a zone
        # uplink already claimed and every later frame on the *other*
        # stream would decode against the wrong schema.
        decoder = encoding.FrameDecoder()
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            meta = message.meta or {}
            blob = meta.get("blob")
            if blob:
                self.bytes_received += len(blob)
            if message.kind == "sysprof-query":
                yield from self._answer_query(ctx, sock, meta)
            elif message.kind == "sysprof-fmt" and blob:
                try:
                    decoder.feed_descriptor(blob)
                except ValueError:
                    self.decode_errors += 1
            elif message.kind == "sysprof-frame" and blob:
                try:
                    fmt, rows = decoder.feed(blob)
                except (KeyError, ValueError):
                    self.decode_errors += 1
                    continue
                fields = TIER_FORMATS.get(fmt.name)
                if fields is not None and fmt.fields != fields:
                    self.decode_errors += 1
                    continue
                self.frames_received += 1
                # Small per-record analysis cost at this tier.
                yield from ctx.compute(self.per_record_cost * len(rows))
                if fmt.name == "sysprof.sketch":
                    # Merging a serialized sketch into the store is a
                    # bucket-table walk, not a constant-time append.
                    yield from ctx.compute(
                        self.node.kernel.costs.sketch_merge * len(rows)
                    )
                self.ingest_rows(fmt, rows)
            # ``sysprof-data`` (the text-encoding ablation) is not decoded.

    def _answer_query(self, ctx, sock, meta):
        """Serve one remote query (paper: "Other nodes in the system can
        query the GPA").  Works at any tier — a zone GPA answers over its
        rack-local state."""
        from repro.core.query import GpaQueryError, execute_query

        try:
            result, size = execute_query(
                self, meta.get("kind"), meta.get("params")
            )
            # Small per-query analysis cost at the analyzer.
            yield from ctx.compute(5e-6)
            self.queries_served += 1
            yield from ctx.send_message(
                sock, size, kind="sysprof-result", meta={"result": result}
            )
        except (GpaQueryError, KeyError, TypeError, ValueError) as error:
            yield from ctx.send_message(
                sock, 96, kind="sysprof-result", meta={"error": str(error)}
            )

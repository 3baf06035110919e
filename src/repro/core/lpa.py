"""Local Performance Analyzers.

An LPA registers callbacks with Kprof for the event types it needs,
"filters, aggregates, and correlates raw monitoring data" in the kernel
fast path, and stores condensed records into per-CPU double buffers for
the dissemination daemon.  Callbacks never block and are computationally
small; their CPU cost is charged by the kernel at the firing site.

Buffered records are **preordered rows**: tuples whose values follow the
LPA's registered record format field-for-field.  The daemon packs a row
with a flat iteration — no per-record dict construction or field-name
lookups on the dissemination hot path.  (Dict records still encode; rows
are the fast path, not a requirement.)

:class:`InteractionLPA` is the analyzer the paper describes in detail:
it reconstructs request/response interactions from packet direction
flips (see :mod:`repro.core.interactions`) and attaches per-interaction
resource metrics — receive-buffer residency, user/kernel CPU time,
blocked time, context switches, disk operations — obtained by sampling
task accounting at message boundaries.
"""

from collections import deque

from repro.core.buffers import DoubleBuffer
from repro.core.interactions import InteractionTracker, pending_interactions
from repro.observability import tracer as _trace
from repro.observability.sketches import (
    QuantileSketch,
    SKETCH_METRICS,
    SKETCH_PAYLOAD_WIDTH,
)
from repro.ossim.task import BAND_IRQ, BAND_KERNEL
from repro.ossim import tracepoints as tp
from repro.sim.stats import RunningStat

#: What an interaction LPA records: each interaction, or per-class aggregates.
GRANULARITIES = ("interaction", "class")

# Format (name, fields) for per-interaction records on the wire.
INTERACTION_FORMAT = (
    "sysprof.interaction",
    (
        ("interaction_id", "u32"),
        ("node", "str16"),
        ("client_ip", "str16"),
        ("client_port", "u16"),
        ("server_ip", "str16"),
        ("server_port", "u16"),
        ("start_ts", "f64"),
        ("end_ts", "f64"),
        ("req_packets", "u32"),
        ("req_bytes", "i64"),
        ("resp_packets", "u32"),
        ("resp_bytes", "i64"),
        ("kernel_wait", "f64"),
        ("kernel_cpu", "f64"),
        ("kernel_time", "f64"),
        ("user_time", "f64"),
        ("io_blocked", "f64"),
        ("ctx_switches", "u32"),
        ("disk_ops", "u32"),
        ("server_pid", "u32"),
        ("server_name", "str16"),
        ("request_class", "str16"),
        ("total_latency", "f64"),
    ),
)

# Aggregated per-class summaries (the controller's coarse granularity).
CLASS_SUMMARY_FORMAT = (
    "sysprof.class_summary",
    (
        ("node", "str16"),
        ("request_class", "str24"),
        ("window_start", "f64"),
        ("window_end", "f64"),
        ("count", "u32"),
        ("mean_latency", "f64"),
        ("mean_kernel_time", "f64"),
        ("mean_user_time", "f64"),
        ("mean_kernel_wait", "f64"),
        ("total_bytes", "i64"),
    ),
)

# Node resource snapshots for resource-aware consumers (RA-DWCS).
NODE_STATS_FORMAT = (
    "sysprof.nodestats",
    (
        ("node", "str16"),
        ("ts", "f64"),
        ("cpu_busy", "f64"),
        ("cpu_user", "f64"),
        ("cpu_kernel", "f64"),
        ("run_queue", "u32"),
        ("ctx_switches", "i64"),
        ("rx_backlog_bytes", "i64"),
        ("pending_interactions", "u32"),
    ),
)


# Serialized quantile sketches: one row per (request class, metric) per
# eviction window, fixed width regardless of request rate.  The bucket
# table travels as a run-length string (see repro.core.encoding
# pack_count_runs); base_index anchors the first run.
SKETCH_FORMAT = (
    "sysprof.sketch",
    (
        ("node", "str16"),
        ("request_class", "str24"),
        ("metric", "str8"),
        ("window_start", "f64"),
        ("window_end", "f64"),
        ("count", "i64"),
        ("zero_count", "i64"),
        ("min_value", "f64"),
        ("max_value", "f64"),
        ("sum_value", "f64"),
        ("alpha", "f64"),
        ("base_index", "i64"),
        ("buckets", "str{}".format(SKETCH_PAYLOAD_WIDTH)),
    ),
)


class LocalPerformanceAnalyzer:
    """Base class: subscription lifecycle + buffered record emission."""

    record_format = INTERACTION_FORMAT

    def __init__(self, kernel, kprof, name, buffer_capacity=256, on_buffer_full=None):
        self.kernel = kernel
        self.kprof = kprof
        self.name = name
        self.buffer = DoubleBuffer(
            kernel, buffer_capacity, on_full=on_buffer_full, name=name
        )
        self._subscriptions = []
        self.started = False

    def start(self):
        if self.started:
            return self
        self._subscribe()
        self.started = True
        return self

    def stop(self):
        for sub in self._subscriptions:
            self.kprof.unsubscribe(sub)
        self._subscriptions.clear()
        self.started = False

    def _subscribe(self):
        raise NotImplementedError

    def _add_subscription(self, etypes, callback, predicate=None, cost=None):
        sub = self.kprof.subscribe(
            etypes, callback, predicate=predicate, cost=cost, name=self.name
        )
        self._subscriptions.append(sub)
        return sub

    def evict(self):
        """Periodic eviction: flush the active buffer to the daemon."""
        return self.buffer.switch(force=True)

    def stats(self):
        return {"name": self.name, "buffer": self.buffer.stats()}


class InteractionLPA(LocalPerformanceAnalyzer):
    """The request/response interaction analyzer (paper §2).

    ``granularity`` is ``"interaction"`` (one record each) or ``"class"``
    (aggregate statistics per request class, the controller's
    "statistics for some client class rather than individual
    interactions" mode).  ``classify`` maps an
    :class:`~repro.core.interactions.InteractionRecord` to a class name;
    the default uses the request's message kind.
    """

    def __init__(
        self,
        kernel,
        kprof,
        name="interaction-lpa",
        buffer_capacity=256,
        window_size=128,
        predicate=None,
        classify=None,
        granularity="interaction",
        on_buffer_full=None,
        idle_timeout=1.0,
        arm=False,
    ):
        super().__init__(
            kernel, kprof, name,
            buffer_capacity=buffer_capacity, on_buffer_full=on_buffer_full,
        )
        self.predicate = predicate
        self.classify = classify or (lambda record: record.request_class or "default")
        self.granularity = granularity
        self.window = deque(maxlen=window_size)
        self.arm = arm
        if arm:
            # ARM-token pairing with a direction-flip fallback for
            # untagged traffic (paper: interleaved requests need
            # "domain-specific knowledge and/or ARM support").
            from repro.core.arm import ArmTracker

            fallback = InteractionTracker(
                kernel.name, self._local_ip(), self._on_interaction,
                idle_timeout=idle_timeout,
            )
            self.tracker = ArmTracker(
                kernel.name, self._local_ip(), self._on_interaction,
                idle_timeout=idle_timeout, fallback=fallback,
            )
        else:
            self.tracker = InteractionTracker(
                kernel.name, self._local_ip(), self._on_interaction,
                idle_timeout=idle_timeout,
            )
        self._class_stats = {}
        self._class_window_start = kernel.sim.now
        self.open_interactions = 0
        # Optional SketchLPA observing every emitted interaction (wired by
        # the toolkit when SysProfConfig.latency_sketches is on).
        self.sketches = None

    def _local_ip(self):
        try:
            return self.kernel.ip
        except Exception:
            return None

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    def _subscribe(self):
        self._add_subscription(
            [tp.NET_RX_DRIVER], self._on_rx_driver, predicate=self.predicate
        )
        self._add_subscription(
            [tp.SOCK_ENQUEUE], self._on_sock_enqueue, predicate=self.predicate
        )
        self._add_subscription(
            [tp.SOCK_DELIVER], self._on_sock_deliver, predicate=self.predicate
        )
        self._add_subscription(
            [tp.NET_TX_DRIVER], self._on_tx_driver, predicate=self.predicate
        )

    # ------------------------------------------------------------------
    # fast-path callbacks
    # ------------------------------------------------------------------

    def _on_rx_driver(self, event):
        fields = event.fields
        src = (fields["src_ip"], fields["src_port"])
        dst = (fields["dst_ip"], fields["dst_port"])
        if self.arm:
            self.tracker.note_rx_start(src, dst, event.ts,
                                       arm=fields.get("arm_id"))
        else:
            self.tracker.note_rx_start(src, dst, event.ts)

    def _on_sock_enqueue(self, event):
        fields = event.fields
        src = (fields["src_ip"], fields["src_port"])
        dst = (fields["dst_ip"], fields["dst_port"])
        if self.arm:
            self.tracker.on_packet(
                src, dst, event.ts, fields["size"],
                kind=fields.get("msg_kind"), pid=fields.get("sock_pid"),
                arm=fields.get("arm_id"), is_last=fields.get("is_last", False),
            )
        else:
            self.tracker.on_packet(
                src, dst, event.ts, fields["size"],
                kind=fields.get("msg_kind"), pid=fields.get("sock_pid"),
            )

    def _on_sock_deliver(self, event):
        fields = event.fields
        src = (fields["src_ip"], fields["src_port"])
        dst = (fields["dst_ip"], fields["dst_port"])
        sample = self._sample_task(fields.get("pid"))
        if self.arm:
            self.tracker.on_deliver(
                src, dst, event.ts, task_sample=sample,
                arm=fields.get("arm_id"),
            )
        else:
            self.tracker.on_deliver(src, dst, event.ts, task_sample=sample)

    def _on_tx_driver(self, event):
        fields = event.fields
        src = (fields["src_ip"], fields["src_port"])
        dst = (fields["dst_ip"], fields["dst_port"])
        pid = fields.get("sock_pid")
        if self.arm:
            self.tracker.on_packet(
                src, dst, event.ts, fields["size"],
                kind=fields.get("msg_kind"), pid=pid,
                sampler=lambda: self._sample_task(pid),
                arm=fields.get("arm_id"), is_last=fields.get("is_last", False),
            )
        else:
            self.tracker.on_packet(
                src, dst, event.ts, fields["size"],
                kind=fields.get("msg_kind"), pid=pid,
                sampler=lambda: self._sample_task(pid),
            )

    # ------------------------------------------------------------------
    # metric assembly
    # ------------------------------------------------------------------

    def _sample_task(self, pid):
        task = self.kernel.tasks.get(pid)
        if task is None:
            return None
        now = self.kernel.sim.now
        blocked = task.blocked_time
        if task.blocked_since is not None:
            blocked += now - task.blocked_since
        return {
            "utime": task.utime,
            "stime": task.stime,
            "blocked": blocked,
            "ctx": task.ctx_switches,
            "disk_ops": task.disk_ops,
            "band": task.band,
            "name": task.name,
        }

    def _on_interaction(self, record):
        request, response = record.request, record.response
        first_rx = request.first_rx_ts if request.first_rx_ts is not None else request.first_ts
        if request.deliver_ts is not None:
            record.kernel_wait = max(0.0, request.deliver_ts - first_rx)
        req_sample = request.task_sample
        resp_sample = response.task_sample
        if req_sample is not None and resp_sample is not None:
            record.user_time = max(0.0, resp_sample["utime"] - req_sample["utime"])
            record.kernel_cpu = max(0.0, resp_sample["stime"] - req_sample["stime"])
            record.io_blocked = max(0.0, resp_sample["blocked"] - req_sample["blocked"])
            record.ctx_switches = max(0, resp_sample["ctx"] - req_sample["ctx"])
            record.disk_ops = max(0, resp_sample["disk_ops"] - req_sample["disk_ops"])
            record.server_name = resp_sample["name"]
            if resp_sample["band"] == BAND_KERNEL:
                # Kernel daemons spend their blocked time *in the kernel*.
                record.kernel_cpu += record.io_blocked
                record.io_blocked = 0.0
        record.server_pid = response.pid or request.pid or 0
        if _trace.enabled:
            _trace.active().interaction(
                self.kernel.name, record, clock=self.kernel.clock
            )
        self.window.append(record)
        if self.sketches is not None:
            self.sketches.observe(record)
        if self.granularity == "interaction":
            self.buffer.append(record.as_row())
        else:
            self._aggregate(record)

    def _aggregate(self, record):
        name = self.classify(record)
        bundle = self._class_stats.get(name)
        if bundle is None:
            bundle = self._class_stats[name] = {
                "latency": RunningStat(),
                "kernel_time": RunningStat(),
                "user_time": RunningStat(),
                "kernel_wait": RunningStat(),
                "bytes": 0,
            }
        bundle["latency"].add(record.total_latency)
        bundle["kernel_time"].add(record.kernel_time)
        bundle["user_time"].add(record.user_time)
        bundle["kernel_wait"].add(record.kernel_wait)
        bundle["bytes"] += record.request.bytes + record.response.bytes

    # ------------------------------------------------------------------

    def set_granularity(self, granularity):
        if granularity not in GRANULARITIES:
            raise ValueError("granularity must be 'interaction' or 'class'")
        self.granularity = granularity

    def evict(self):
        """Flush aggregates (class mode) and hand the buffer to the daemon."""
        if self.granularity == "class" and self._class_stats:
            now = self.kernel.sim.now
            for name, bundle in sorted(self._class_stats.items()):
                # Preordered row: CLASS_SUMMARY_FORMAT field order.
                self.buffer.append(
                    (
                        self.kernel.name,
                        name,
                        self._class_window_start,
                        now,
                        bundle["latency"].count,
                        bundle["latency"].mean,
                        bundle["kernel_time"].mean,
                        bundle["user_time"].mean,
                        bundle["kernel_wait"].mean,
                        bundle["bytes"],
                    )
                )
            self._class_stats.clear()
            self._class_window_start = now
        return super().evict()

    @property
    def record_format(self):
        return CLASS_SUMMARY_FORMAT if self.granularity == "class" else INTERACTION_FORMAT

    def flush_tracker(self):
        """End-of-run: close open messages and emit pending interactions."""
        self.tracker.flush()

    def window_snapshot(self):
        return [record.as_dict() for record in self.window]

    def stats(self):
        base = super().stats()
        base.update(
            {
                "interactions": self.tracker.interactions_emitted,
                "messages": self.tracker.messages_closed,
                "unpaired": self.tracker.unpaired_messages,
                "flows": len(self.tracker.flows),
            }
        )
        return base


class SketchLPA(LocalPerformanceAnalyzer):
    """Per-request-class quantile sketches for latency and queue depth.

    Not subscribed to Kprof: the companion :class:`InteractionLPA` feeds
    every emitted interaction through :meth:`observe` (same fast path,
    one extra callback).  Each eviction window serializes the live
    sketches as ``SKETCH_FORMAT`` rows — one bounded row per (class,
    metric) no matter how many interactions landed in the window — and
    resets them, so the GPA merges windows instead of raw records.

    Each observation charges ``sketch_update`` simulated CPU per metric
    in interrupt context under the ledger's "analyzer" category, keeping
    the monitoring-overhead story emergent.
    """

    record_format = SKETCH_FORMAT

    def __init__(self, kernel, kprof, source, name="sketch-lpa",
                 buffer_capacity=64, alpha=0.01, max_buckets=256,
                 on_buffer_full=None):
        super().__init__(
            kernel, kprof, name,
            buffer_capacity=buffer_capacity, on_buffer_full=on_buffer_full,
        )
        self.source = source
        self.alpha = alpha
        self.max_buckets = max_buckets
        self._sketches = {}  # (request_class, metric) -> QuantileSketch
        self._window_start = kernel.clock.local_time(kernel.sim.now)
        self.updates = 0
        self.rows_emitted = 0

    def _subscribe(self):
        """No Kprof subscriptions; fed by the interaction LPA's hook."""

    def observe(self, record):
        """Fold one emitted interaction into the live sketches."""
        request_class = self.source.classify(record)
        self._update(request_class, "latency", record.total_latency)
        self._update(
            request_class, "qdepth", pending_interactions(self.source.tracker)
        )
        self.kernel.cpu.submit(
            None, self.kernel.costs.sketch_update * len(SKETCH_METRICS),
            "kernel", band=BAND_IRQ, attribution="analyzer",
        ).defuse()

    def _update(self, request_class, metric, value):
        key = (request_class, metric)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = QuantileSketch(
                alpha=self.alpha, max_buckets=self.max_buckets
            )
        sketch.add(value)
        self.updates += 1

    def evict(self):
        now = self.kernel.clock.local_time(self.kernel.sim.now)
        for request_class, metric in sorted(self._sketches):
            sketch = self._sketches[(request_class, metric)]
            if sketch.count == 0:
                continue
            self.buffer.append(
                sketch.to_row(
                    self.kernel.name, request_class, metric,
                    self._window_start, now,
                )
            )
            self.rows_emitted += 1
        self._sketches.clear()
        self._window_start = now
        return super().evict()

    def stats(self):
        base = super().stats()
        base.update(
            {
                "updates": self.updates,
                "rows_emitted": self.rows_emitted,
                "sketches": len(self._sketches),
            }
        )
        return base


class NodeStatsLPA(LocalPerformanceAnalyzer):
    """Periodic node-level resource snapshots (CPU, run queue, backlog).

    Not event-driven: the dissemination daemon invokes :meth:`sample` on
    its eviction timer.  Consumers like RA-DWCS read these through the GPA
    to find the lightly-loaded server.
    """

    record_format = NODE_STATS_FORMAT

    def __init__(self, kernel, kprof, name="nodestats-lpa", buffer_capacity=64,
                 on_buffer_full=None, pending_probe=None):
        super().__init__(
            kernel, kprof, name,
            buffer_capacity=buffer_capacity, on_buffer_full=on_buffer_full,
        )
        self.pending_probe = pending_probe
        self._last_ctx = 0

    def _subscribe(self):
        """No event subscriptions; sampling is timer-driven."""

    def sample(self):
        kernel = self.kernel
        cpu = kernel.cpu
        backlog = sum(
            sock.rx_buffered for sock in kernel._sockets.values()
        )
        pending = self.pending_probe() if self.pending_probe is not None else 0
        # Preordered row: NODE_STATS_FORMAT field order.
        self.buffer.append(
            (
                kernel.name,
                kernel.clock.local_time(kernel.sim.now),
                cpu.busy_time,
                cpu.mode_time["user"],
                cpu.mode_time["kernel"],
                cpu.run_queue_length,
                cpu.ctx_switch_count,
                backlog,
                pending,
            )
        )


# Per-syscall activity summaries (the paper's finest activity granularity:
# "an activity may be a system call made by some user-level application").
SYSCALL_STATS_FORMAT = (
    "sysprof.syscalls",
    (
        ("node", "str16"),
        ("window_start", "f64"),
        ("window_end", "f64"),
        ("call", "str16"),
        ("count", "u32"),
        ("mean_latency", "f64"),
        ("max_latency", "f64"),
        ("total_latency", "f64"),
    ),
)


class SyscallLPA(LocalPerformanceAnalyzer):
    """Tracks every system call's kernel residency.

    Pairs SYSCALL_ENTRY/SYSCALL_EXIT per pid (the kernel serializes a
    task's syscalls, so a simple per-pid open-call slot suffices) and
    aggregates latency statistics per call name.  Summaries are emitted
    on each eviction cycle; the live table is queryable locally.
    """

    record_format = SYSCALL_STATS_FORMAT

    def __init__(self, kernel, kprof, name="syscall-lpa", buffer_capacity=64,
                 predicate=None, on_buffer_full=None):
        super().__init__(
            kernel, kprof, name,
            buffer_capacity=buffer_capacity, on_buffer_full=on_buffer_full,
        )
        self.predicate = predicate
        self._open_calls = {}  # pid -> (call name, entry ts)
        self._stats = {}  # call name -> RunningStat
        self._window_start = kernel.sim.now
        self.unmatched_exits = 0

    def _subscribe(self):
        self._add_subscription(
            [tp.SYSCALL_ENTRY], self._on_entry, predicate=self.predicate
        )
        self._add_subscription(
            [tp.SYSCALL_EXIT], self._on_exit, predicate=self.predicate
        )

    def _on_entry(self, event):
        self._open_calls[event["pid"]] = (event.get("call", "?"), event.ts)

    def _on_exit(self, event):
        opened = self._open_calls.pop(event["pid"], None)
        if opened is None:
            self.unmatched_exits += 1
            return
        call, entry_ts = opened
        stat = self._stats.get(call)
        if stat is None:
            stat = self._stats[call] = RunningStat()
        stat.add(max(0.0, event.ts - entry_ts))

    def snapshot(self):
        """Live per-call table: {call: {count, mean, max, total}}."""
        return {
            call: {
                "count": stat.count,
                "mean": stat.mean,
                "max": stat.maximum if stat.count else 0.0,
                "total": stat.total,
            }
            for call, stat in self._stats.items()
        }

    def evict(self):
        now = self.kernel.clock.local_time(self.kernel.sim.now)
        for call in sorted(self._stats):
            stat = self._stats[call]
            if stat.count == 0:
                continue
            # Preordered row: SYSCALL_STATS_FORMAT field order.
            self.buffer.append(
                (
                    self.kernel.name,
                    self._window_start,
                    now,
                    call,
                    stat.count,
                    stat.mean,
                    stat.maximum,
                    stat.total,
                )
            )
        self._stats.clear()
        self._window_start = now
        return super().evict()

    def stats(self):
        base = super().stats()
        base.update(
            {
                "open_calls": len(self._open_calls),
                "unmatched_exits": self.unmatched_exits,
                "tracked_calls": sorted(self._stats),
            }
        )
        return base

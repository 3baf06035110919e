"""The SysProf dissemination daemon.

One kernel-band task per monitored node.  "On receiving a 'buffer full'
notification from a LPA, the daemon wakes up and copies the LPA's data
into its own buffer ... it is the daemon's job to aggregate data
collected from different LPA buffers in order to send it to interested
parties.  For high performance and low overheads ... the daemon uses
dynamic data filters, PBIO-based binary encodings, and kernel-level
publish-subscribe channels."

The daemon also exports every analyzer's state through /proc (as the
earlier Dproc system did) and drives the periodic eviction timer that
flushes partially-filled buffers and samples node statistics.

Every wakeup coalesces all drained LPA buffers into one multi-record
*frame* per channel, each record packed through its format's record
``Struct`` (see :mod:`repro.core.encoding`).  The ``data_filter`` is
pushed down to run right after each drain, so filtered records never
pay any encode cost.
Simulated CPU is charged ``record_copy`` per drained record, then
``frame_encode_base + record_encode * n`` per frame (the base defaults
to zero).
"""

from repro.core import encoding
from repro.core.publisher import ChannelPublisher
from repro.observability import tracer as _trace
from repro.ossim.task import BAND_KERNEL
from repro.sim.resources import Store


class DisseminationDaemon:
    """Collects analyzer buffers, encodes records, publishes to channels.

    :attr:`lpas` is the node's one analyzer list, in attach order:
    eviction, publication, the toolkit's start/stop/flush, the
    controller and the metrics registry all read it.
    """

    #: The daemon task's name.
    name = "sysprofd"

    def __init__(self, node, hub, eviction_interval=0.25,
                 channel_prefix="sysprof/", text_encoding=False,
                 affinity=None):
        self.node = node
        self.hub = hub
        self.registry = encoding.FormatRegistry()
        self.eviction_interval = eviction_interval
        # Optional record-level filter: data_filter(lpa_name, record) -> keep?
        self.data_filter = None
        self.text_encoding = text_encoding  # ablation: ship repr() text
        self.affinity = affinity  # pin to a dedicated analysis core (SMP)
        self.lpas = []
        self._by_buffer = {}
        self._notifications = Store(node.sim)
        # Endpoint sockets, per-endpoint backoff, and format-descriptor
        # tracking all live in the publisher (shared with federation
        # tiers); the jitter RNG substream keeps its historical name so
        # same-seed fault traces are unchanged.
        self.publisher = ChannelPublisher(
            node, hub, channel_prefix=channel_prefix,
            rng_label="sysprofd.backoff.{}".format(node.name),
            pid_fn=lambda: self.task.pid if self.task else 0,
        )
        self._pending_get = None  # the _run loop's parked notification get()
        self.task = None
        self.records_published = 0
        self.records_filtered = 0
        self._stopped = False

    def add_lpa(self, lpa):
        """Attach an analyzer: its buffer-full notifications come here."""
        self.lpas.append(lpa)
        self._by_buffer[id(lpa.buffer)] = lpa
        lpa.buffer.on_full = self._on_buffer_full
        fmt_name, fmt_fields = lpa.record_format
        if fmt_name not in self.registry:
            self.registry.register(fmt_name, fmt_fields)
        self.node.kernel.procfs.register(
            "/proc/sysprof/{}".format(lpa.name), lambda lpa=lpa: _render_lpa(lpa)
        )
        return lpa

    def remove_lpa(self, lpa):
        """Detach an analyzer: it is no longer evicted or published, and
        its ``/proc/sysprof`` entry goes.  Records still in its buffers
        are dropped with it."""
        self.lpas.remove(lpa)
        del self._by_buffer[id(lpa.buffer)]
        lpa.buffer.on_full = None
        self.node.kernel.procfs.unregister("/proc/sysprof/{}".format(lpa.name))
        return lpa

    def _on_buffer_full(self, buffer, index):
        self._notifications.put((buffer, index))

    def start(self):
        if self.task is None:
            self.task = self.node.spawn(
                self.name, self._run, band=BAND_KERNEL, affinity=self.affinity
            )
            # Everything this task does — encode, copy, publish syscalls —
            # is dissemination work in the attribution ledger.
            self.task.category = "dissemination"
            if _trace.enabled:
                _trace.active().name_thread(
                    self.node.kernel.name, self.task.pid, self.name
                )
            self.node.kernel.procfs.register(
                "/proc/sysprof/daemon", self._render_daemon
            )
        return self.task

    def stop(self):
        self._stopped = True

    def kill(self, reason="fault-injection"):
        """Crash the daemon task in place (no cleanup path runs).

        Buffer-full notifications already queued survive for the
        restarted daemon, but the dead task's parked ``get()`` is
        withdrawn so it cannot swallow the next one.  Publish sockets die
        with the process — subscribers observe connection resets.
        Counters live on this object and stay cumulative across restarts.
        """
        if self.task is not None:
            self.task.kill(reason)
            self.task = None
        if self._pending_get is not None:
            self._notifications.cancel_get(self._pending_get)
            self._pending_get = None
        # A fresh process has no memory of past failures: abandoned
        # endpoints get a clean retry budget.
        self.publisher.forget_all()

    def restart(self):
        """Respawn the daemon task after :meth:`kill`."""
        return self.start()

    # ------------------------------------------------------------------

    def _run(self, ctx):
        sim = ctx.sim
        # One persistent pending get() so no notification is ever consumed
        # by an abandoned waiter.  Tracked on self so kill() can withdraw
        # it — otherwise the dead task's waiter would eat the next item.
        pending = self._pending_get = self._notifications.get()
        last_eviction = sim.now
        while not self._stopped:
            timer = sim.timeout(self.eviction_interval)
            yield from ctx.wait(sim.any_of([pending, timer]), reason="sysprofd-idle")
            if self._stopped:
                break
            if sim.now - last_eviction >= self.eviction_interval:
                # Timer-driven flush of partial buffers + node sampling,
                # guaranteed to run even under constant notification load.
                last_eviction = sim.now
                for lpa in self.lpas:
                    if hasattr(lpa, "sample"):
                        lpa.sample()
                    lpa.evict()
            batches = []
            while True:
                if pending.triggered:
                    batches.append(pending.value)
                    pending = self._pending_get = self._notifications.get()
                    continue
                ok, item = self._notifications.try_get()
                if not ok:
                    break
                batches.append(item)
            if not batches:
                continue
            yield from self._publish_frames(ctx, batches)
        self._notifications.cancel_get(pending)
        self._pending_get = None
        return "stopped"

    # ------------------------------------------------------------------
    # filtering (pushed down ahead of any encode cost)
    # ------------------------------------------------------------------

    def _apply_filter(self, lpa, fmt, records):
        """Run ``data_filter`` before encoding: dropped records never pay
        ``record_encode``.  Row records are exposed through a reusable
        dict-like :class:`~repro.core.encoding.RecordView`."""
        data_filter = self.data_filter
        if data_filter is None:
            return records
        view = encoding.RecordView(fmt)
        kept = []
        append = kept.append
        for record in records:
            probe = record if isinstance(record, dict) else view.bind(record)
            if data_filter(lpa.name, probe):
                append(record)
        self.records_filtered += len(records) - len(kept)
        return kept

    # ------------------------------------------------------------------
    # coalesce all drains into one frame per channel
    # ------------------------------------------------------------------

    def _publish_frames(self, ctx, batches):
        costs = self.node.kernel.costs
        groups = {}  # fmt_name -> (fmt, [records])
        order = []
        for buffer, index in batches:
            lpa = self._by_buffer.get(id(buffer))
            if lpa is None:
                continue
            fmt_name, fmt_fields = lpa.record_format
            group = groups.get(fmt_name)
            if group is None:
                fmt = self.registry.register(fmt_name, fmt_fields)
                group = groups[fmt_name] = (fmt, [])
                order.append(fmt_name)
            fmt, coalesced = group
            if self.data_filter is None:
                drained = buffer.drain_into(index, coalesced)
            else:
                records = buffer.drain(index)
                drained = len(records)
                coalesced.extend(self._apply_filter(lpa, fmt, records))
            if drained:
                # Copy records out of the per-CPU buffer.
                yield from ctx.kcompute(costs.record_copy * drained)
        for fmt_name in order:
            fmt, records = groups[fmt_name]
            if not records:
                continue
            count = len(records)
            yield from ctx.kcompute(
                costs.frame_encode_base + costs.record_encode * count
            )
            if self.text_encoding:
                blob = encoding.encode_text(records, fmt)
                # Text rendering costs an extra multiple per record.
                yield from ctx.kcompute(
                    costs.record_encode * costs.text_encode_multiplier * count
                )
                yield from self._send(ctx, fmt, blob, "sysprof-data", text=True)
            else:
                blob = encoding.encode_frame(fmt, records)
                yield from self._send(ctx, fmt, blob, "sysprof-frame")
            self.records_published += count

    # ------------------------------------------------------------------
    # channel publication
    # ------------------------------------------------------------------

    def _send(self, ctx, fmt, blob, kind, text=False):
        yield from self.publisher.publish(ctx, fmt, blob, kind, text=text)

    # ------------------------------------------------------------------

    def _render_daemon(self):
        lines = [
            "daemon={} node={}".format(self.name, self.node.name),
            "records_published={}".format(self.records_published),
            "records_filtered={}".format(self.records_filtered),
        ]
        for key, value in self.publisher.stats().items():
            if key != "parent_link":
                lines.append("{}={}".format(key, value))
        lines.append("lpas={}".format(",".join(lpa.name for lpa in self.lpas)))
        return "\n".join(lines) + "\n"

    def stats(self):
        return {
            "records_published": self.records_published,
            "records_filtered": self.records_filtered,
            # The publisher's counters, and its parent link's when
            # federated: sysprof.daemon.<node>.parent_link.* metrics.
            **self.publisher.stats(),
            # Gauge: the controller's drill-down lever moves this at
            # runtime, and the diagnosis experiment asserts it is raised
            # then restored.
            "eviction_interval": self.eviction_interval,
        }


def _render_lpa(lpa):
    lines = ["lpa={}".format(lpa.name)]
    for key, value in sorted(lpa.stats().items()):
        lines.append("{}={}".format(key, value))
    if hasattr(lpa, "window_snapshot"):
        window = lpa.window_snapshot()
        lines.append("window_records={}".format(len(window)))
        for record in window[-5:]:
            lines.append(
                "interaction id={} class={} total={:.6f} kernel={:.6f} user={:.6f}".format(
                    record["interaction_id"],
                    record["request_class"],
                    record["total_latency"],
                    record["kernel_time"],
                    record["user_time"],
                )
            )
    return "\n".join(lines) + "\n"

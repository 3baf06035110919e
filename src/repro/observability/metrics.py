"""A unified metrics registry over the per-component ``stats()`` dicts.

Kprof, the LPAs, the dissemination daemon, the GPA, NTP, and the network
fabric each grew an ad-hoc ``stats()`` dict; this module puts one named,
typed counter-and-gauge API in front of them.  Metric names follow
``sysprof.<component>.<node>.<metric>`` (dot-separated, lowercase;
nested stats flatten with further dots), e.g.::

    sysprof.kprof.proxy.delivered
    sysprof.daemon.backend1.send_errors
    sysprof.gpa.mgmt.records_received
    sysprof.ntp.backend1.offset
    sysprof.node.proxy.cpu_busy

Two metric kinds exist: :class:`Counter` (monotone, cumulative — the
operator's long-lived view; most ``stats()`` fields) and :class:`Gauge`
(point-in-time level, e.g. CPU busy seconds or an NTP offset).  *Source*
metrics are lazily sampled from a callback at collection time, so
registering them costs nothing during the run.

:func:`build_registry` wires a :class:`~repro.core.toolkit.SysProf`
installation and registers the rendered registry at
``/proc/sysprof/metrics`` on every monitored node (and the GPA node) —
the same surface Dproc-style exports use elsewhere in the toolkit.
Collection is read-only and charges no simulated CPU.
"""

COUNTER = "counter"
GAUGE = "gauge"

# stats() fields that are levels, not monotone totals.
_GAUGE_FIELDS = frozenset((
    "active_length", "open_calls", "flows", "interactions",
    "class_summaries", "cpa_metrics", "syscall_summaries",
    "queued", "depth", "offset",
    "eviction_interval", "stale_threshold", "sketches", "sketch_series",
    "series", "rules", "active_alerts", "clients",
    "detectors", "active",
    # federation / topology levels
    "switches", "racks", "nodes", "rack_gpas", "zones",
    # reparenting state: 1 while a publisher is failed over to a
    # standby/root, 0 when back on its primary parent
    "failed_over",
    # simulator engine levels (sysprof.sim.*)
    "delivery_depth", "store_size",
))


class Metric:
    """One named value; ``kind`` is :data:`COUNTER` or :data:`GAUGE`."""

    __slots__ = ("name", "kind", "help", "_value", "_fn")

    def __init__(self, name, kind, help="", fn=None):
        self.name = name
        self.kind = kind
        self.help = help
        self._value = 0.0
        self._fn = fn

    @property
    def value(self):
        if self._fn is not None:
            return self._fn()
        return self._value

    def __repr__(self):
        return "<{} {}={}>".format(self.kind, self.name, self.value)


class Counter(Metric):
    """Monotonically increasing total."""

    __slots__ = ()

    def __init__(self, name, help="", fn=None):
        super().__init__(name, COUNTER, help=help, fn=fn)

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (got {})".format(amount))
        self._value += amount


class Gauge(Metric):
    """A level that can move both ways."""

    __slots__ = ()

    def __init__(self, name, help="", fn=None):
        super().__init__(name, GAUGE, help=help, fn=fn)

    def set(self, value):
        self._value = value


class MetricsRegistry:
    """Named metrics plus lazily-sampled ``stats()`` sources."""

    def __init__(self):
        self._metrics = {}  # name -> Metric
        self._sources = []  # (prefix, fn)
        # Simulated time of the most recent snapshot() scrape (None until
        # the first one).  Stamped into every snapshot so consumers — the
        # time-series recorder, the dashboard — can flag series whose
        # newest sample is old instead of silently re-plotting it.
        self.last_sample_ts = None

    # -- registration ---------------------------------------------------

    def _add(self, metric):
        if metric.name in self._metrics:
            raise ValueError("duplicate metric {!r}".format(metric.name))
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name, help="", fn=None):
        return self._add(Counter(name, help=help, fn=fn))

    def gauge(self, name, help="", fn=None):
        return self._add(Gauge(name, help=help, fn=fn))

    def get(self, name):
        return self._metrics[name]

    def register_source(self, prefix, fn):
        """Attach a ``stats()``-style dict source under ``prefix``.

        ``fn()`` is called at collection time; its dict is flattened
        (nested dicts extend the name with dots) and non-numeric values
        are skipped.  Field kind is inferred: names in a small gauge
        vocabulary become gauges, everything else a counter.

        Re-registering a prefix replaces the old source (components like
        the diagnosis engine may be rebuilt mid-run).
        """
        for i, (existing, _fn) in enumerate(self._sources):
            if existing == prefix:
                self._sources[i] = (prefix, fn)
                return
        self._sources.append((prefix, fn))

    def source_prefixes(self):
        """Registered source prefixes (coverage tests read this)."""
        return [prefix for prefix, _fn in self._sources]

    # -- collection -----------------------------------------------------

    def collect(self):
        """``{name: (kind, value)}`` across metrics and sources, sorted."""
        out = {}
        for name, metric in self._metrics.items():
            out[name] = (metric.kind, metric.value)
        for prefix, fn in self._sources:
            for name, value in _flatten(prefix, fn()):
                leaf = name.rsplit(".", 1)[-1]
                kind = GAUGE if leaf in _GAUGE_FIELDS else COUNTER
                out[name] = (kind, value)
        return dict(sorted(out.items()))

    def snapshot(self, now):
        """One timestamped scrape: ``{"ts": now, "metrics": collect()}``.

        ``now`` is the simulated time of the scrape; it is stamped into
        the returned dict and remembered as :attr:`last_sample_ts`.
        Sources are all sampled inside this single call, so every value
        in one snapshot shares the same sample timestamp — the contract
        the recorder's per-point staleness flags rely on.
        """
        self.last_sample_ts = now
        return {"ts": now, "metrics": self.collect()}

    def render(self):
        """Plain-text exposition (``/proc/sysprof/metrics`` format)."""
        lines = []
        for name, (kind, value) in self.collect().items():
            if isinstance(value, float):
                lines.append("{} {} {:.9g}".format(name, kind, value))
            else:
                lines.append("{} {} {}".format(name, kind, value))
        return "\n".join(lines) + "\n"

    def __len__(self):
        return len(self.collect())


def _flatten(prefix, value):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten("{}.{}".format(prefix, key), value[key])
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        return  # names/lists/strings are labels, not metric values
    else:
        yield prefix, value


def build_registry(sysprof):
    """Wire a registry over one SysProf installation.

    Registers per-node Kprof/LPA/daemon sources, the GPA, NTP clock
    offsets, netsim fabric counters, and per-node CPU gauges; then
    exposes the rendered text at ``/proc/sysprof/metrics`` on every
    involved node.  Pure pull: nothing is sampled until collected.
    """
    registry = MetricsRegistry()
    kernels = []
    for node_name, monitor in sysprof.monitors.items():
        kernels.append(monitor.kernel)
        registry.register_source(
            "sysprof.kprof.{}".format(node_name), monitor.kprof.stats
        )
        registry.register_source(
            "sysprof.daemon.{}".format(node_name), monitor.daemon.stats
        )
        for lpa in monitor.all_lpas():
            registry.register_source(
                "sysprof.lpa.{}.{}".format(node_name, lpa.name), lpa.stats
            )
        registry.gauge(
            "sysprof.node.{}.cpu_busy".format(node_name),
            help="simulated CPU busy seconds",
            fn=lambda kernel=monitor.kernel: kernel.cpu.busy_time,
        )
    if sysprof.gpa is not None:
        gpa_kernel = sysprof.gpa.node.kernel
        if gpa_kernel not in kernels:
            kernels.append(gpa_kernel)
        registry.register_source(
            "sysprof.gpa.{}".format(sysprof.gpa.node.name), sysprof.gpa.stats
        )
        registry.gauge(
            "sysprof.gpa.{}.stale_threshold".format(sysprof.gpa.node.name),
            help="seconds of telemetry silence before a node is suspect",
            fn=lambda gpa=sysprof.gpa: gpa.stale_threshold,
        )
    if sysprof.federation is not None:
        for zone_gpa in sysprof.federation.all_zones():
            zone_kernel = zone_gpa.node.kernel
            if zone_kernel not in kernels:
                kernels.append(zone_kernel)
            registry.register_source(
                "sysprof.zone.{}".format(zone_gpa.zone), zone_gpa.stats
            )
    topology = getattr(sysprof.cluster, "topology", None)
    if topology is not None and hasattr(topology, "stats"):
        registry.register_source("sysprof.topology", topology.stats)
    clock_table = sysprof.clock_table
    if clock_table is not None:
        for node_name in sorted(getattr(clock_table, "_offsets", {})):
            registry.gauge(
                "sysprof.ntp.{}.offset".format(node_name),
                help="measured clock offset vs the reference node (s)",
                fn=lambda name=node_name: clock_table.offset(name),
            )
    fabric = getattr(sysprof.cluster, "fabric", None)
    if fabric is not None and hasattr(fabric, "stats"):
        registry.register_source("sysprof.netsim", fabric.stats)
    sim = getattr(sysprof.cluster, "sim", None)
    if sim is not None and hasattr(sim, "stats"):
        registry.register_source("sysprof.sim", sim.stats)
    # Process-global counting components (PR 5 satellite): the GPA query
    # client aggregate and the experiment sweep runner.  Imported lazily —
    # both modules sit above this one in the import graph.
    from repro.core.query import client_stats
    from repro.experiments.runner import stats as runner_stats

    registry.register_source("sysprof.query", client_stats)
    registry.register_source("sysprof.runner", runner_stats)
    for kernel in kernels:
        kernel.procfs.register("/proc/sysprof/metrics", registry.render)
    return registry

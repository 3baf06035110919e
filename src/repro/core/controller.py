"""The SysProf controller: the runtime management interface.

"The SysProf controller regulates the granularity and the amounts of
information monitored and analyzed by SysProf.  It can instruct the LPAs
to collect statistics for some client class rather than for individual
interactions.  It can change the sizes of internal LPA buffers.  It
provides a management interface for SysProf."
"""

import math

from repro.core.cpa import CustomAnalyzer
from repro.core.lpa import GRANULARITIES


def classify_by_client(record):
    """Group interactions per client IP (per-customer accounting —
    "information about total resources used in processing requests is
    very important for utility billing, auditing, enforcing SLAs")."""
    return "client:{}".format(record.client[0])


def classify_by_client_group(groups, default="other"):
    """Classifier mapping client IPs to named groups: {name: [ips...]}."""
    lookup = {}
    for name, ips in groups.items():
        for ip in ips:
            lookup[ip] = name

    def classify(record):
        return lookup.get(record.client[0], default)

    return classify


def _check_interval(interval):
    if not 0.0 < interval < math.inf:
        raise ValueError(
            "interval must be positive and finite: {!r}".format(interval)
        )


class Controller:
    """Management operations over an installed :class:`~repro.core.toolkit.SysProf`."""

    def __init__(self, toolkit):
        self.toolkit = toolkit
        self._drilled = {}  # node -> settings saved by drill_down()

    def _monitors(self, node=None):
        monitors = self.toolkit.monitors
        if node is None:
            return list(monitors.values())
        return [monitors[node]]

    # ------------------------------------------------------------------
    # granularity and sizing
    # ------------------------------------------------------------------

    def set_granularity(self, granularity, node=None):
        """'interaction' (per request/response record) or 'class' (aggregates)."""
        for monitor in self._monitors(node):
            if monitor.interaction_lpa is not None:
                monitor.interaction_lpa.set_granularity(granularity)

    def set_classifier(self, classify, node=None):
        """Install the client-class function used in 'class' granularity.

        ``classify(record) -> str`` over
        :class:`~repro.core.interactions.InteractionRecord`; see
        :func:`classify_by_client` and
        :func:`~repro.core.lpa.classify_by_kind` (the default) for
        ready-made classifiers ("collect statistics for some client
        class rather than for individual interactions").
        """
        for monitor in self._monitors(node):
            if monitor.interaction_lpa is not None:
                monitor.interaction_lpa.classify = classify

    def set_buffer_capacity(self, capacity, node=None):
        """Resize analyzer buffers (takes effect immediately; a smaller
        capacity flushes sooner, a larger one batches more per publish)."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        for monitor in self._monitors(node):
            for lpa in monitor.daemon.lpas:
                lpa.buffer.capacity = capacity

    def set_window_size(self, size, node=None):
        """Resize the LPA's sliding window of recent interactions."""
        from collections import deque

        for monitor in self._monitors(node):
            lpa = monitor.interaction_lpa
            if lpa is not None:
                lpa.window = deque(lpa.window, maxlen=size)

    def set_eviction_interval(self, interval, node=None):
        """Set how often the daemons evict their analyzers' buffers."""
        _check_interval(interval)
        for monitor in self._monitors(node):
            monitor.daemon.eviction_interval = interval

    def set_forward_interval(self, interval, zone=None):
        """Retune how often zone GPAs forward condensed rollups upward.

        Applies to every federation zone, or just ``zone``.  The forward
        loop re-reads the interval before each sleep, so the change takes
        effect at its next wakeup without restarting the task.
        """
        _check_interval(interval)
        federation = self.toolkit.federation
        if federation is None:
            raise ValueError("set_forward_interval needs a federated install")
        if zone is not None:
            zones = [self.toolkit.federation.zone(zone)]
        else:
            zones = list(federation.all_zones())
        for zone_gpa in zones:
            zone_gpa.forward_interval = interval

    # ------------------------------------------------------------------
    # closed-loop drill-down (the diagnosis engine's lever)
    # ------------------------------------------------------------------

    def drill_down(self, node, factor=4, granularity="interaction"):
        """Raise monitoring resolution on one implicated node.

        Divides the node's eviction interval by ``factor`` (more frequent
        samples and sketch windows) and forces per-interaction records so
        blame attribution has fine-grained data.  Returns the saved
        settings for :meth:`restore`; idempotent while already drilled.
        Arguments are checked before anything changes, so a refused
        request leaves the node as it was.
        """
        if not factor >= 1:
            raise ValueError("drill-down factor must be >= 1: {!r}".format(factor))
        if granularity not in (None,) + GRANULARITIES:
            raise ValueError("unknown granularity {!r}".format(granularity))
        if node in self._drilled:
            return self._drilled[node]
        monitor = self.toolkit.monitors[node]
        saved = {
            "eviction_interval": monitor.daemon.eviction_interval,
            "granularity": (
                monitor.interaction_lpa.granularity
                if monitor.interaction_lpa is not None else None
            ),
        }
        self.set_eviction_interval(
            monitor.daemon.eviction_interval / factor, node=node
        )
        if granularity is not None and monitor.interaction_lpa is not None:
            self.set_granularity(granularity, node=node)
        self._drilled[node] = saved
        return saved

    def restore(self, node):
        """Undo :meth:`drill_down`; no-op if the node is not drilled."""
        saved = self._drilled.pop(node, None)
        if saved is None:
            return False
        self.set_eviction_interval(saved["eviction_interval"], node=node)
        if saved["granularity"] is not None:
            self.set_granularity(saved["granularity"], node=node)
        return True

    def drilled_nodes(self):
        return sorted(self._drilled)

    # ------------------------------------------------------------------
    # event selection
    # ------------------------------------------------------------------

    def disable_events(self, etypes, node=None):
        """Mask event types/classes ("events can be selectively switched
        on and off depending on the requirement")."""
        for monitor in self._monitors(node):
            monitor.kprof.mask(etypes)

    def enable_events(self, etypes, node=None):
        for monitor in self._monitors(node):
            monitor.kprof.unmask(etypes)

    # ------------------------------------------------------------------
    # custom analyzers
    # ------------------------------------------------------------------

    def install_cpa(self, node, source, etypes, name, predicate=None, cost=None):
        """Compile E-Code ``source`` and load it as a CPA on ``node``.

        ``name`` must be new on the node: it names the analyzer's
        ``/proc/sysprof`` entry and its ``sysprof.lpa.<node>.<name>``
        metrics.
        """
        monitor = self.toolkit.monitors[node]
        if any(lpa.name == name for lpa in monitor.daemon.lpas):
            raise ValueError(
                "analyzer {!r} already installed on {}".format(name, node)
            )
        cpa = CustomAnalyzer(
            monitor.kernel, monitor.kprof, source, etypes, name=name,
            predicate=predicate, cost=cost,
        )
        monitor.daemon.add_lpa(cpa)
        monitor.cpas[name] = cpa
        cpa.start()
        return cpa

    def uninstall_cpa(self, node, name):
        """Unload a CPA: no more events, evictions, records or procfs entry."""
        monitor = self.toolkit.monitors[node]
        cpa = monitor.cpas.pop(name)
        cpa.stop()
        monitor.daemon.remove_lpa(cpa)
        return cpa

    # ------------------------------------------------------------------

    def status(self):
        """One status dict per monitored node."""
        report = {}
        for node, monitor in self.toolkit.monitors.items():
            report[node] = {
                "kprof": monitor.kprof.stats(),
                "daemon": monitor.daemon.stats(),
                "lpas": {lpa.name: lpa.stats() for lpa in monitor.daemon.lpas},
            }
        return report

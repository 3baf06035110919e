"""Kprof: the SysProf kernel monitoring interface.

Kprof implements the kernel's :class:`~repro.ossim.tracepoints.Tracepoints`
interface.  Analyzers (LPAs/CPAs) register callbacks for sets of event
types, optionally guarded by predicates (pid, port range, arbitrary field
tests).  When no analyzer subscribes to an event type it costs nothing —
"when none of the analyzer(s) subscribes to events, all of them are
turned off, resulting in almost negligible perturbation".

Perturbation model: the kernel charges the cost that
``Kprof.site(etypes)`` answers to the simulated CPU *before* firing,
covering the probe itself plus every subscribed callback's declared
cost.  The answer is cached per tuple of event types until the next
subscription change.  Callbacks run synchronously in the fast path and
must not block (they are plain functions, not processes).
"""

from collections import Counter

from repro.core.events import MonEvent, intern_etype
from repro.observability import tracer as _trace
from repro.ossim.tracepoints import EVENT_CLASSES, Tracepoints


class Subscription:
    __slots__ = ("name", "callback", "predicate", "fields_pred", "cost", "etypes")

    def __init__(self, name, callback, predicate, cost, etypes):
        self.name = name
        self.callback = callback
        self.predicate = predicate
        # Predicates built by the helpers below only read event *fields*
        # (via .get/[]/in, which plain dicts also support) and advertise
        # that with ``fields_only``.  emit() can then evaluate them on the
        # raw payload dict before paying for a MonEvent + clock read.
        self.fields_pred = (
            predicate if getattr(predicate, "fields_only", False) else None
        )
        self.cost = cost
        self.etypes = frozenset(etypes)

    def __repr__(self):
        return "<Subscription {} {} events>".format(self.name, len(self.etypes))


class Kprof(Tracepoints):
    """Per-node monitoring hub; install with :meth:`attach`."""

    def __init__(self, kernel, monitor_costs=None):
        self.kernel = kernel
        self.costs = monitor_costs or kernel.costs
        self._subs = {}  # etype -> [Subscription]
        # Copy-on-write view of _subs: etype -> tuple(Subscription), only
        # for un-masked types.  emit() iterates these immutable snapshots,
        # so subscribe/unsubscribe during delivery never mutates a list
        # mid-iteration and the per-fire list() copy is gone.
        self._snap = {}
        self._enabled = frozenset()
        self._cost_cache = {}
        self._sites = {}  # etypes tuple -> site() answer
        self._masked = set()  # event types force-disabled by the controller
        self.events_fired = Counter()
        self.events_delivered = 0
        self.events_suppressed = 0
        self.attached = False

    def attach(self):
        """Patch the kernel: install Kprof as its tracepoint implementation."""
        self.kernel.set_tracepoints(self)
        self.attached = True
        self.kernel.procfs.register("/proc/sysprof/kprof", self._render_stats)
        return self

    def _render_stats(self):
        lines = ["kprof node={}".format(self.kernel.name)]
        lines.append("suppressed={}".format(self.events_suppressed))
        lines.append("masked={}".format(",".join(sorted(self._masked)) or "-"))
        for etype in sorted(self.events_fired):
            lines.append("fired {}={}".format(etype, self.events_fired[etype]))
        return "\n".join(lines) + "\n"

    def detach(self):
        """Restore the unpatched kernel (all probes compiled out)."""
        from repro.ossim.tracepoints import NULL_TRACEPOINTS

        self.kernel.set_tracepoints(NULL_TRACEPOINTS)
        self.attached = False

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------

    def subscribe(self, etypes, callback, predicate=None, cost=None, name="lpa"):
        """Deliver events of the given types to ``callback(event)``.

        ``cost`` is the simulated CPU seconds one invocation costs
        (defaults to the cost model's ``lpa_callback``).  Returns the
        :class:`Subscription`, which is the unsubscribe handle.
        """
        etypes = self._expand(etypes)
        if cost is None:
            cost = self.costs.lpa_callback
        sub = Subscription(name, callback, predicate, cost, etypes)
        for etype in etypes:
            intern_etype(etype)
            self._subs.setdefault(etype, []).append(sub)
        self._rebuild()
        return sub

    def unsubscribe(self, sub):
        for etype in sub.etypes:
            subs = self._subs.get(etype)
            if subs and sub in subs:
                subs.remove(sub)
                if not subs:
                    del self._subs[etype]
        self._rebuild()

    def mask(self, etypes):
        """Force-disable event types regardless of subscriptions (controller)."""
        self._masked.update(self._expand(etypes))
        self._rebuild()

    def unmask(self, etypes):
        self._masked.difference_update(self._expand(etypes))
        self._rebuild()

    def _rebuild(self):
        """Refresh the copy-on-write dispatch tables after any mutation."""
        masked = self._masked
        self._snap = {
            etype: tuple(subs)
            for etype, subs in self._subs.items()
            if etype not in masked
        }
        self._enabled = frozenset(self._snap)
        self._cost_cache.clear()
        self._sites.clear()

    @staticmethod
    def _expand(etypes):
        """Expand event class names ('network') into their member types."""
        if isinstance(etypes, str):
            etypes = [etypes]
        expanded = []
        for etype in etypes:
            if etype in EVENT_CLASSES:
                expanded.extend(EVENT_CLASSES[etype])
            else:
                expanded.append(etype)
        return expanded

    # ------------------------------------------------------------------
    # Tracepoints interface (hot path)
    # ------------------------------------------------------------------

    def enabled(self, etype):
        return etype in self._enabled

    def cost(self, etype):
        cached = self._cost_cache.get(etype)
        if cached is not None:
            return cached
        if etype not in self._enabled:
            total = self.costs.probe_disabled
        else:
            total = self.costs.probe_fire
            for sub in self._snap[etype]:
                total += sub.cost
        self._cost_cache[etype] = total
        return total

    def site(self, etypes):
        site = self._sites.get(etypes)
        if site is None:
            site = self._sites[etypes] = self._resolve(etypes)
        return site

    def _resolve(self, etypes):
        enabled = self._enabled
        costs = self.costs
        cost = probe = analyzer = 0.0
        for etype in etypes:
            cost += self.cost(etype)
            if etype in enabled:
                probe += costs.probe_fire
                callbacks = 0.0
                for sub in self._snap[etype]:
                    callbacks += sub.cost
                analyzer += callbacks
            else:
                probe += costs.probe_disabled
        return (
            cost, probe, analyzer,
            tuple(etype for etype in etypes if etype in enabled),
        )

    def fire(self, etype, sim_ts=None, **fields):
        """Keyword form of :meth:`emit`, for cold probe sites and tests."""
        self.emit(etype, sim_ts, fields)

    def emit(self, etype, sim_ts, fields):
        """Deliver one tracepoint hit with payload ``fields`` to the
        current subscribers.

        ``fields`` is delivered as is, not copied: every event a site
        emits from one payload (the layers of one packet) shares that
        dict as its ``fields``.  Subscribers and predicates only read it.

        Accounting is per (event, subscription) attempt: every attempt is
        either *delivered* or *suppressed* by a predicate, and
        ``events_fired`` counts attempts so ``fired == delivered +
        suppressed`` always holds (checked in :meth:`stats`).
        """
        snap = self._snap.get(etype)
        if snap is None:
            return
        # ``event`` is built lazily: if every subscription rejects via a
        # fields-only predicate, neither the MonEvent nor the clock read
        # ever happens.
        event = None
        delivered = 0
        suppressed = 0
        for sub in snap:
            predicate = sub.predicate
            if predicate is not None:
                if event is None and sub.fields_pred is not None:
                    if not predicate(fields):
                        suppressed += 1
                        continue
                else:
                    if event is None:
                        event = self._make_event(etype, sim_ts, fields)
                    if not predicate(event):
                        suppressed += 1
                        continue
            if event is None:
                event = self._make_event(etype, sim_ts, fields)
            sub.callback(event)
            delivered += 1
        self.events_fired[etype] += delivered + suppressed
        self.events_delivered += delivered
        self.events_suppressed += suppressed
        if _trace.enabled and delivered + suppressed:
            _trace.active().probe(
                self.kernel.name, etype, fields.get("pid"),
                self.kernel.sim.now if sim_ts is None else sim_ts,
            )

    def _make_event(self, etype, sim_ts, fields):
        sim_now = self.kernel.sim.now if sim_ts is None else sim_ts
        ts = self.kernel.clock.local_time(sim_now)
        return MonEvent(etype, ts, self.kernel.name, fields)

    # ------------------------------------------------------------------

    def stats(self):
        fired_total = sum(self.events_fired.values())
        if fired_total != self.events_delivered + self.events_suppressed:
            raise AssertionError(
                "kprof accounting broken: fired={} != delivered={} + "
                "suppressed={}".format(
                    fired_total, self.events_delivered, self.events_suppressed
                )
            )
        return {
            "fired": dict(self.events_fired),
            "delivered": self.events_delivered,
            "suppressed": self.events_suppressed,
            "subscribed_types": sorted(self._subs),
            "masked": sorted(self._masked),
        }


# ----------------------------------------------------------------------
# predicate helpers ("events can be pruned on the basis of process IDs,
# group IDs, or other such predicates")
#
# All of them read only event *fields* through .get/[]/in, so they work
# on a raw payload dict as well as a MonEvent; ``fields_only = True``
# advertises that and lets Kprof.emit() reject events before building a
# MonEvent at all.  Hand-written predicates that touch .ts/.node/.etype
# must NOT set the flag.
# ----------------------------------------------------------------------

def pid_predicate(pids):
    """Keep only events whose pid/sock_pid is in ``pids``."""
    pids = frozenset(pids)

    def check(event):
        pid = event.get("pid", event.get("sock_pid"))
        return pid in pids

    check.fields_only = True
    return check


def exclude_port_range(low, high):
    """Drop network events touching ports in [low, high] (e.g. SysProf's own
    dissemination traffic)."""

    def check(event):
        port = event.get("src_port")
        if port is not None and low <= port <= high:
            return False
        port = event.get("dst_port")
        return port is None or not low <= port <= high

    check.fields_only = True
    return check


def field_predicate(name, allowed):
    """Keep events whose field ``name`` is in ``allowed``."""
    allowed = frozenset(allowed)

    def check(event):
        return event.get(name) in allowed

    check.fields_only = True
    return check


def all_of(*predicates):
    """Conjunction of predicates."""

    def check(event):
        return all(p(event) for p in predicates)

    check.fields_only = all(
        getattr(p, "fields_only", False) for p in predicates
    )
    return check

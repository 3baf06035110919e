"""The service supervisor: slice-pumped simulation + live control plane.

Batch experiments call ``cluster.run(until=T)`` once; live service mode
instead *pumps* the same simulator in bounded slices::

    while not stopped:
        apply queued controls          # <- the only mutation point
        cluster.run(until=now + slice_width)
        recorder.sample(now); anomaly.check(now)   # host-side pure
        flush subscription events

Between slices the host thread owns the world, so a control plane can
interleave: queries read live state, controls (fault injections, SLO
retunes, drill-downs, interval changes) mutate it.  Two properties make
this safe:

* **Determinism.**  Traffic is generated by in-sim tasks (see
  :mod:`repro.service.scenarios`), and everything the supervisor itself
  does at a boundary — metrics scrapes, anomaly scoring, event flushes —
  is host-side pure: no simulated CPU, no scheduled events, no cluster
  RNG draws.  A supervised run that receives **no** controls therefore
  produces a byte-identical GPA trace digest to a batch run of the same
  scenario and seed, for *any* slice width
  (``tests/service/test_determinism.py`` pins this).
* **Boundary-only mutation.**  Requests arriving from other threads
  (the socket server) are queued and drained only at slice boundaries,
  through the same :meth:`handle` dispatch the in-process client calls
  between pumps — controls land at a slice edge in arrival order, never
  mid-event.

The request/response surface is versioned JSON (``PROTOCOL_VERSION``);
see :data:`OPS` for the operation table and ``docs/service.md`` for the
full API reference.
"""

import queue
import threading
from fnmatch import fnmatchcase

from repro.faults import FaultSchedule
from repro.observability.anomaly import AnomalyMonitor
from repro.observability.recorder import TimeSeriesRecorder
from repro.service.scenarios import build_scenario
from repro.sim.errors import SimError

#: Wire/protocol version stamped on every request, response, and event.
PROTOCOL_VERSION = 1

#: Default simulated seconds advanced per pump.
DEFAULT_SLICE = 0.1

#: Event kinds a subscriber may ask for.
EVENT_KINDS = ("alert", "reparent", "anomaly")


class ServiceError(Exception):
    """A request that cannot be served (unknown op, bad params, ...)."""


def _string(params, name, default=None):
    """``params[name]`` (``default`` when absent); refused unless a string."""
    value = params.get(name, default)
    if not isinstance(value, str):
        raise ServiceError("{} must be a string, got {!r}".format(name, value))
    return value


class Supervisor:
    """Owns one scenario; pumps it and serves/applies its control plane."""

    def __init__(self, scenario, slice_width=DEFAULT_SLICE, anomaly=True):
        if isinstance(scenario, str):
            scenario = build_scenario(scenario)
        if slice_width <= 0.0:
            raise ValueError("slice_width must be positive")
        self.scenario = scenario
        self.cluster = scenario.cluster
        self.sysprof = scenario.sysprof
        self.engine = scenario.engine
        self.injector = scenario.injector
        self.slice_width = float(slice_width)
        self.slices = 0
        self.controls_applied = 0
        self.stopping = False
        # -- observability side-cars (host-side pure) -------------------
        registry = self.sysprof.metrics
        self.recorder = TimeSeriesRecorder(registry)
        registry.register_source("sysprof.recorder", self.recorder.stats)
        self.anomaly = None
        if anomaly:
            self.anomaly = AnomalyMonitor(self.recorder, engine=self.engine)
            registry.register_source("sysprof.anomaly", self.anomaly.stats)
        registry.register_source("sysprof.service", self.stats)
        # -- event plumbing ---------------------------------------------
        self._event_seq = 0
        self._subs = {}       # sub id -> {"kinds": set, "queue": [..], "push": fn|None}
        self._next_sub = 0
        self.engine.add_listener(self._on_alert_event)
        for link in scenario.parent_links():
            link.listeners.append(self._on_reparent_event)
        # -- cross-thread request queue ---------------------------------
        self._pending = queue.Queue()

    # ------------------------------------------------------------------
    # pumping
    # ------------------------------------------------------------------

    @property
    def now(self):
        return self.cluster.sim.now

    def pump(self, width=None):
        """Drain queued controls, then advance one slice of ``width``."""
        self._drain_pending()
        target = self.now + (self.slice_width if width is None else width)
        self.cluster.run(until=target)
        self.slices += 1
        self._boundary()
        return self.now

    def run(self, duration):
        """Pump whole slices until ``duration`` simulated seconds pass."""
        deadline = self.now + duration
        while self.now < deadline and not self.stopping:
            self.pump(width=min(self.slice_width, deadline - self.now))
        return self.now

    def _boundary(self):
        """Host-side work at a slice edge: scrape, score, flush."""
        now = self.now
        self.recorder.sample(now)
        if self.anomaly is not None:
            self.anomaly.check(now=now)
        self._flush_pushes()

    def shutdown(self):
        """Stop pumping, flush telemetry, release global state."""
        if self.stopping:
            return
        self.stopping = True
        self.sysprof.flush()
        self.engine.remove_listener(self._on_alert_event)
        for link in self.scenario.parent_links():
            if self._on_reparent_event in link.listeners:
                link.listeners.remove(self._on_reparent_event)
        self.scenario.close()

    # ------------------------------------------------------------------
    # events and subscriptions
    # ------------------------------------------------------------------

    def _emit(self, kind, data):
        self._event_seq += 1
        event = {
            "v": PROTOCOL_VERSION, "event": kind, "seq": self._event_seq,
            "at": self.now, "data": data,
        }
        for sub in self._subs.values():
            if kind in sub["kinds"]:
                sub["queue"].append(event)
        return event

    def _on_alert_event(self, event):
        alert = event["alert"]
        kind = "anomaly" if alert.get("source") == "anomaly" else "alert"
        payload = {"state": event["state"], "alert": alert}
        self._emit(kind, payload)
        # Anomaly transitions also surface on the plain alert stream so
        # an "alerts only" subscriber still sees every lifecycle edge.
        if kind == "anomaly":
            self._emit("alert", payload)

    def _on_reparent_event(self, link_name, entry):
        self._emit("reparent", {"link": link_name, **entry})

    def subscribe(self, kinds, push=None):
        """Register a subscriber; returns its id.

        ``kinds`` is an iterable of :data:`EVENT_KINDS` entries.
        ``push``, when given, is called with each pending event at slice
        boundaries (the socket server's line writer); without it, events
        accumulate until :meth:`poll`.
        """
        if isinstance(kinds, str):
            raise ServiceError(
                "events must be a list of event kinds, got {!r}".format(kinds)
            )
        kinds = set(kinds or EVENT_KINDS)
        unknown = kinds - set(EVENT_KINDS)
        if unknown:
            raise ServiceError(
                "unknown event kinds: {}".format(sorted(unknown))
            )
        self._next_sub += 1
        sub_id = self._next_sub
        self._subs[sub_id] = {"kinds": kinds, "queue": [], "push": push}
        return sub_id

    def unsubscribe(self, sub_id):
        return self._subs.pop(sub_id, None) is not None

    def poll(self, sub_id):
        """Drain and return a pull-mode subscriber's pending events."""
        try:
            sub = self._subs[sub_id]
        except KeyError:
            raise ServiceError("unknown subscription {}".format(sub_id)) from None
        events, sub["queue"] = sub["queue"], []
        return events

    def _flush_pushes(self):
        for sub_id in list(self._subs):
            sub = self._subs.get(sub_id)
            if sub is None or sub["push"] is None or not sub["queue"]:
                continue
            events, sub["queue"] = sub["queue"], []
            try:
                for event in events:
                    sub["push"](event)
            except Exception:
                # A dead socket must not take the supervisor down.
                self._subs.pop(sub_id, None)

    # ------------------------------------------------------------------
    # cross-thread submission (socket server -> supervisor thread)
    # ------------------------------------------------------------------

    def submit(self, request, timeout=30.0):
        """Queue ``request`` from another thread; block for the response.

        The supervisor thread drains the queue at the next slice
        boundary, so the round-trip takes at most one slice of wall
        time (plus queueing).  Raises ``TimeoutError`` if the supervisor
        stops pumping.
        """
        done = threading.Event()
        slot = {"response": None}
        self._pending.put((request, slot, done))
        if not done.wait(timeout):
            raise TimeoutError("supervisor did not answer within {}s".format(timeout))
        return slot["response"]

    def _drain_pending(self):
        while True:
            try:
                request, slot, done = self._pending.get_nowait()
            except queue.Empty:
                return
            slot["response"] = self.handle(request)
            done.set()

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    def handle(self, request):
        """Serve one request dict; always returns a response dict.

        Never raises: errors come back as ``{"ok": false, "error": ...}``
        so a malformed socket request cannot kill the supervisor loop.
        """
        request_id = None
        try:
            if not isinstance(request, dict):
                raise ServiceError("request must be an object")
            request_id = request.get("id")
            version = request.get("v", PROTOCOL_VERSION)
            if version != PROTOCOL_VERSION:
                raise ServiceError(
                    "unsupported protocol version {!r} (serving {})".format(
                        version, PROTOCOL_VERSION
                    )
                )
            op = request.get("op")
            handler = OPS.get(op)
            if handler is None:
                raise ServiceError(
                    "unknown op {!r} (have: {})".format(op, ", ".join(sorted(OPS)))
                )
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise ServiceError("params must be an object")
            result = handler(self, params)
            response = {"v": PROTOCOL_VERSION, "ok": True, "result": result}
        except (ServiceError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
            response = {
                "v": PROTOCOL_VERSION, "ok": False,
                "error": "{}: {}".format(type(exc).__name__, exc)
                if not isinstance(exc, ServiceError) else str(exc),
            }
        if request_id is not None:
            response["id"] = request_id
        return response

    # -- query ops ------------------------------------------------------

    def _op_ping(self, params):
        return {"now": self.now, "scenario": self.scenario.name}

    def _op_status(self, params):
        return {
            "now": self.now,
            "scenario": self.scenario.describe(),
            "slice_width": self.slice_width,
            "slices": self.slices,
            "controls_applied": self.controls_applied,
            "active_alerts": len(self.engine.active),
            "subscriptions": len(self._subs),
            "stopping": self.stopping,
        }

    def _op_metrics(self, params):
        pattern = params.get("pattern")
        out = {}
        for name, (kind, value) in self.sysprof.metrics.collect().items():
            if pattern is None or fnmatchcase(name, pattern):
                out[name] = {"kind": kind, "value": value}
        return {"ts": self.now, "metrics": out}

    def _op_series(self, params):
        name = params["name"]
        since = params.get("since")
        return {
            "name": name,
            "kind": self.recorder.kind(name),
            "points": self.recorder.series(name, since=since),
        }

    def _op_series_names(self, params):
        return {"names": self.recorder.names(params.get("pattern"))}

    def _op_sketch(self, params):
        # A class no window has reported yet is a valid question: its
        # answer is an empty sketch.
        request_class = _string(params, "class")
        metric = _string(params, "metric", "latency")
        node = params.get("node")
        if node is not None:
            node = _string(params, "node")
        lookback = params.get("lookback")
        since = None if lookback is None else self.now - float(lookback)
        sketch = self.sysprof.gpa.sketches.merged(
            request_class=request_class, metric=metric, node=node,
            since=since,
        )
        percentiles = params.get("percentiles", (50.0, 90.0, 95.0, 99.0))
        return {
            "class": request_class,
            "metric": metric,
            "node": node,
            "count": sketch.count,
            "percentiles": {
                "p{:g}".format(p): sketch.percentile(p) for p in percentiles
            },
        }

    def _op_ledger(self, params):
        ledger = self.scenario.ledger
        if ledger is None:
            raise ServiceError("no CPU ledger installed")
        node = params.get("node")
        nodes = ledger.nodes()
        if node is not None:
            if node not in nodes:
                raise ServiceError("unknown ledger node {!r}".format(node))
            nodes = [node]
        out = {}
        for name in nodes:
            breakdown = ledger.breakdown(name, include_idle=False)
            out[name] = {
                "breakdown": breakdown,
                "busy": sum(breakdown.values()),
                "monitoring_share": ledger.monitoring_share(name),
            }
        return {"ts": self.now, "nodes": out}

    def _op_alerts(self, params):
        limit = int(params.get("limit", 20))
        return {
            "active": [
                self.engine.active[name].as_dict()
                for name in sorted(self.engine.active)
            ],
            "history": [
                alert.as_dict() for alert in self.engine.alerts[-limit:]
            ],
            "fired": self.engine.alerts_fired,
            "resolved": self.engine.alerts_resolved,
        }

    def _op_rules(self, params):
        return {
            "rules": [
                {
                    "name": rule.name,
                    "kind": rule.kind,
                    "firing": rule.firing,
                    "last_value": rule.last_value,
                }
                for rule in self.engine.rules
            ]
        }

    def _op_anomalies(self, params):
        if self.anomaly is None:
            raise ServiceError("anomaly detection disabled")
        stats = self.anomaly.stats()
        stats["active"] = dict(self.anomaly.active)
        return stats

    def _op_staleness(self, params):
        threshold = float(
            params.get("threshold", self.sysprof.gpa.stale_threshold)
        )
        return {
            "threshold": threshold,
            "series": self.recorder.stale(self.now, threshold),
            "nodes": {
                node: self.sysprof.tier_of(node).staleness(node, self.now)
                for node in sorted(self.sysprof.monitors)
            },
        }

    def _op_dashboard(self, params):
        from repro.service.dashboard import render

        return {"text": render(self, width=int(params.get("width", 60)))}

    # -- control ops (mutate; drained at slice boundaries) --------------

    def _op_inject_fault(self, params):
        schedule = FaultSchedule.from_dict({"events": params["events"]})
        try:
            registered = self.injector.inject(schedule, base=params.get("base"))
        except SimError as exc:
            raise ServiceError(str(exc)) from None
        self.controls_applied += 1
        return {"registered": registered}

    def _op_set_rules(self, params):
        names = self.engine.set_rules(params["rules"], now=self.now)
        self.controls_applied += 1
        return {"rules": names}

    def _op_add_rule(self, params):
        name = self.engine.add_rule(params["rule"])
        self.controls_applied += 1
        return {"rule": name}

    def _op_remove_rule(self, params):
        removed = self.engine.remove_rule(params["rule"], now=self.now)
        self.controls_applied += 1
        return {"removed": removed}

    def _op_drill_down(self, params):
        node = params["node"]
        saved = self.sysprof.controller.drill_down(
            node,
            factor=float(params.get("factor", self.engine.drill_factor)),
            granularity=params.get("granularity", "interaction"),
        )
        self.controls_applied += 1
        return {"node": node, "saved": saved}

    def _op_restore(self, params):
        node = _string(params, "node")
        if node not in self.sysprof.monitors:
            raise ServiceError("unknown monitored node {!r}".format(node))
        restored = self.sysprof.controller.restore(node)
        self.controls_applied += 1
        return {"node": node, "restored": restored}

    def _op_set_eviction_interval(self, params):
        interval = float(params["interval"])
        self.sysprof.controller.set_eviction_interval(
            interval, node=params.get("node")
        )
        self.controls_applied += 1
        return {"interval": interval}

    def _op_set_forward_interval(self, params):
        interval = float(params["interval"])
        self.sysprof.controller.set_forward_interval(
            interval, zone=params.get("zone")
        )
        self.controls_applied += 1
        return {"interval": interval}

    # -- subscription ops ------------------------------------------------

    def _op_subscribe(self, params):
        # The socket server injects its connection's writer as "_push"
        # (never JSON-visible); in-process subscribers pull via "poll".
        push = params.get("_push")
        if push is not None and not callable(push):
            raise ServiceError("_push is reserved for the socket server")
        sub_id = self.subscribe(params.get("events"), push=push)
        return {"sub": sub_id, "events": sorted(self._subs[sub_id]["kinds"])}

    def _op_unsubscribe(self, params):
        return {"removed": self.unsubscribe(int(params["sub"]))}

    def _op_poll(self, params):
        return {"events": self.poll(int(params["sub"]))}

    def _op_shutdown(self, params):
        self.shutdown()
        return {"stopping": True, "now": self.now}

    # ------------------------------------------------------------------

    def stats(self):
        """Counters for the metrics registry (``sysprof.service``)."""
        return {
            "slices": self.slices,
            "controls_applied": self.controls_applied,
            "subscriptions": len(self._subs),
            "events_emitted": self._event_seq,
        }

    def __repr__(self):
        return "<Supervisor {} t={:.2f} slices={}>".format(
            self.scenario.name, self.now, self.slices
        )


#: op name -> unbound handler.  Query ops read live state; control ops
#: mutate and are therefore only ever executed at slice boundaries
#: (the in-process client runs between pumps, the socket server's
#: requests are queued and drained by the pump itself).
OPS = {
    "ping": Supervisor._op_ping,
    "status": Supervisor._op_status,
    "metrics": Supervisor._op_metrics,
    "series": Supervisor._op_series,
    "series_names": Supervisor._op_series_names,
    "sketch": Supervisor._op_sketch,
    "ledger": Supervisor._op_ledger,
    "alerts": Supervisor._op_alerts,
    "rules": Supervisor._op_rules,
    "anomalies": Supervisor._op_anomalies,
    "staleness": Supervisor._op_staleness,
    "dashboard": Supervisor._op_dashboard,
    "inject_fault": Supervisor._op_inject_fault,
    "set_rules": Supervisor._op_set_rules,
    "add_rule": Supervisor._op_add_rule,
    "remove_rule": Supervisor._op_remove_rule,
    "drill_down": Supervisor._op_drill_down,
    "restore": Supervisor._op_restore,
    "set_eviction_interval": Supervisor._op_set_eviction_interval,
    "set_forward_interval": Supervisor._op_set_forward_interval,
    "subscribe": Supervisor._op_subscribe,
    "unsubscribe": Supervisor._op_unsubscribe,
    "poll": Supervisor._op_poll,
    "shutdown": Supervisor._op_shutdown,
}

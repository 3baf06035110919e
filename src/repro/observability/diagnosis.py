"""The online diagnosis engine: evaluate SLOs, blame, drill down.

Ties the streaming pieces into the paper's closed loop ("runtime
streaming analyses" that detect SLA violations *while the system runs*,
§1/§3.2):

1. frames arrive at the GPA (and, in a federation, at every zone GPA)
   and land in its sketch store / nodestats history; each tier offers
   every ingested batch to :meth:`DiagnosisEngine.on_ingest`, so rules
   measured at a zone keep evaluating when the root dies;
2. at most once per ``eval_interval`` of simulated time the engine
   measures every :class:`~repro.observability.slo.SloRule` against the
   merged sketches, the CPU ledger, and node staleness — a rule that
   names a node at the tier holding that node's records (its zone GPA
   in a federation), every other rule at the root;
3. a rule that fires produces an :class:`~repro.observability.slo.Alert`
   carrying **blame** — the node with the highest mean local residency
   over the recent window and its dominant stage (kernel-wait /
   kernel-cpu / user / io-blocked), reusing
   :mod:`repro.analysis.bottleneck`;
4. the blamed node is **drilled down**: the engine asks the
   :class:`~repro.core.controller.Controller` to shrink that node's
   eviction interval and force per-interaction records, so diagnosis
   data sharpens exactly where the problem is; resolution restores the
   saved settings.

Purity contract: the engine is host-side analysis driven from the GPA's
ingest path — it charges no simulated CPU, schedules no events, and
reads no random streams, so an installed engine whose rules never fire
cannot change a same-seed trace hash.  (When a rule *does* fire, the
drill-down changes monitoring behavior — that perturbation is the
point, and it is measured via the ledger.)
"""

from repro.observability import ledger as _ledger
from repro.observability.slo import Alert, ExternalRule, parse_rules

#: Percentiles rendered in the dashboard's latency table.
DASHBOARD_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


class DiagnosisEngine:
    """Online SLO evaluation with blame attribution and drill-down."""

    def __init__(self, sysprof, rules=(), ledger=None, lookback=2.0,
                 eval_interval=0.1, drill_factor=4,
                 drill_granularity="interaction", blame_window=None):
        self.sysprof = sysprof
        self.gpa = sysprof.gpa
        if self.gpa is None:
            raise ValueError("DiagnosisEngine needs an installed GPA")
        self.controller = sysprof.controller
        self.ledger = ledger if ledger is not None else _ledger.active()
        self.rules = parse_rules(rules)
        self.lookback = lookback
        self.eval_interval = eval_interval
        self.drill_factor = drill_factor
        self.drill_granularity = drill_granularity
        self.blame_window = blame_window if blame_window is not None else lookback
        self.alerts = []        # every Alert ever fired, in order
        self.active = {}        # rule name -> firing Alert
        self.drill_log = []     # one dict per drill-down episode
        self._drill_open = {}   # node -> open episode dict
        self.evaluations = 0
        self.alerts_fired = 0
        self.alerts_resolved = 0
        self.anomaly_alerts = 0
        self.retunes = 0
        self._last_eval = None
        self._alert_seq = 0     # monotone alert-id source (rule + anomaly)
        self._listeners = []    # fns called with fire/clear event dicts
        self._tiers = [self.gpa]
        if sysprof.federation is not None:
            self._tiers += sysprof.federation.all_zones()
        for tier in self._tiers:
            tier.diagnosis = self
        if sysprof.metrics is not None:
            sysprof.metrics.register_source("sysprof.diagnosis", self.stats)

    def detach(self):
        """Unhook from every tier's ingest path."""
        for tier in self._tiers:
            if tier.diagnosis is self:
                tier.diagnosis = None

    # ------------------------------------------------------------------
    # alert events (service subscriptions)
    # ------------------------------------------------------------------

    def add_listener(self, fn):
        """Call ``fn(event)`` on every alert transition.

        Events are plain dicts: ``{"type": "alert", "state": "fire" |
        "clear", "at": now, "alert": alert.as_dict()}``.  Listeners are
        host-side observers — they must not touch the simulator.
        """
        self._listeners.append(fn)
        return fn

    def remove_listener(self, fn):
        if fn in self._listeners:
            self._listeners.remove(fn)

    def _emit(self, event):
        for fn in list(self._listeners):
            fn(event)

    def _next_alert_id(self):
        self._alert_seq += 1
        return self._alert_seq

    # ------------------------------------------------------------------
    # ingest-driven evaluation
    # ------------------------------------------------------------------

    def on_ingest(self, format_name, records):
        """Tier hook: rate-limited evaluation as telemetry arrives."""
        if format_name not in ("sysprof.sketch", "sysprof.nodestats"):
            return
        now = self.gpa.node.sim.now
        if self._last_eval is not None and now - self._last_eval < self.eval_interval:
            return
        self.evaluate(now)

    def evaluate(self, now):
        """Measure every rule once and advance its alert state."""
        self._last_eval = now
        self.evaluations += 1
        for rule in self.rules:
            tier = self.sysprof.tier_of(rule.node) if rule.node else self.gpa
            value = rule.measure(
                tier, ledger=self.ledger, now=now,
                lookback=rule.lookback or self.lookback,
            )
            transition = rule.update(
                value, threshold=rule.effective_threshold(tier)
            )
            if transition == "fire":
                self._on_fire(rule, value, now)
            elif transition == "clear":
                self._on_clear(rule, value, now)
        return self.active

    def _on_fire(self, rule, value, now):
        blame = self.blame(rule, now)
        alert = Alert(rule, now, value, blame=blame, id=self._next_alert_id())
        self.active[rule.name] = alert
        self.alerts.append(alert)
        self.alerts_fired += 1
        self._emit({"type": "alert", "state": "fire", "at": now,
                    "alert": alert.as_dict()})
        node = blame.get("node")
        if node:
            self._drill(node, now)

    def _on_clear(self, rule, value, now):
        alert = self.active.pop(rule.name, None)
        if alert is None:
            return
        alert.resolve(now, value)
        self.alerts_resolved += 1
        self._emit({"type": "alert", "state": "clear", "at": now,
                    "alert": alert.as_dict()})
        node = alert.blame.get("node")
        if node and not self._still_blamed(node):
            self._restore(node, now)

    # ------------------------------------------------------------------
    # live retune (service control plane)
    # ------------------------------------------------------------------

    def set_rules(self, texts, now=None):
        """Replace the rule set mid-run.

        Rules whose normalized text is unchanged keep their firing state
        and hysteresis counters; rules that disappear have any active
        alert resolved (and the blamed node's drill-down restored, if no
        other alert still blames it).  Returns the new rule names.
        """
        if now is None:
            now = self.gpa.node.sim.now
        seen = set()
        kept = []
        existing = {rule.name: rule for rule in self.rules}
        for rule in parse_rules(texts):
            if rule.name in seen:
                continue
            seen.add(rule.name)
            kept.append(existing.get(rule.name, rule))
        for name, rule in existing.items():
            if name not in seen and name in self.active:
                self._on_clear(rule, rule.last_value, now)
                rule.firing = False
        self.rules = kept
        self.retunes += 1
        return [rule.name for rule in self.rules]

    def add_rule(self, text):
        """Append one rule; raises on a duplicate (by normalized text)."""
        rule = parse_rules([text])[0]
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError("duplicate rule {!r}".format(rule.name))
        self.rules.append(rule)
        self.retunes += 1
        return rule.name

    def remove_rule(self, name, now=None):
        """Drop one rule by its normalized text; resolves its alert."""
        if not isinstance(name, str):
            raise ValueError("rule must be a string: {!r}".format(name))
        name = " ".join(name.split())
        for i, rule in enumerate(self.rules):
            if rule.name == name:
                if now is None:
                    now = self.gpa.node.sim.now
                if name in self.active:
                    self._on_clear(rule, rule.last_value, now)
                    rule.firing = False
                del self.rules[i]
                self.retunes += 1
                return True
        return False

    # ------------------------------------------------------------------
    # external (anomaly-originated) alerts
    # ------------------------------------------------------------------

    def external_fire(self, name, value, now=None, blame=None,
                      source="anomaly", drill=False):
        """Fire a synthetic alert through the normal lifecycle.

        Used by the anomaly detectors: the alert gets a unique engine id
        (so it can never collide with a rule alert on the same node),
        shows up in ``active``/``alerts``/the dashboard, and is emitted
        to listeners.  No drill-down unless ``drill=True`` — anomaly
        alerts default to pure observation so they cannot perturb a
        same-seed trace.  Idempotent while firing: a second fire of the
        same name returns the existing alert.
        """
        if now is None:
            now = self.gpa.node.sim.now
        rule = ExternalRule(name)
        if rule.name in self.active:
            return self.active[rule.name]
        alert = Alert(rule, now, value, blame=blame or {},
                      id=self._next_alert_id(), source=source)
        self.active[rule.name] = alert
        self.alerts.append(alert)
        self.alerts_fired += 1
        self.anomaly_alerts += 1
        self._emit({"type": "alert", "state": "fire", "at": now,
                    "alert": alert.as_dict()})
        if drill:
            node = (blame or {}).get("node")
            if node:
                self._drill(node, now)
        return alert

    def external_clear(self, name, value=None, now=None):
        """Resolve a synthetic alert fired via :meth:`external_fire`."""
        name = " ".join(name.split())
        alert = self.active.pop(name, None)
        if alert is None:
            return None
        if now is None:
            now = self.gpa.node.sim.now
        alert.resolve(now, value)
        self.alerts_resolved += 1
        self._emit({"type": "alert", "state": "clear", "at": now,
                    "alert": alert.as_dict()})
        node = alert.blame.get("node")
        if node and not self._still_blamed(node):
            self._restore(node, now)
        return alert

    def _still_blamed(self, node):
        return any(
            alert.blame.get("node") == node for alert in self.active.values()
        )

    # ------------------------------------------------------------------
    # blame attribution
    # ------------------------------------------------------------------

    def blame(self, rule, now):
        """Name the responsible node and its dominant stage."""
        if rule.kind == "staleness":
            return {"node": rule.node, "stage": "stale", "reason": "telemetry quiet"}
        if rule.kind == "cpu_share":
            return {"node": rule.node, "stage": rule.category,
                    "reason": "category share over threshold"}
        # Latency/qdepth: rank monitored nodes by recent local residency.
        # Deferred import — analysis pulls in the experiments package,
        # which imports repro.core; importing it at module load would
        # cycle through a partially-initialized core package.
        from repro.analysis.bottleneck import find_bottleneck

        since = now - self.blame_window
        federation = self.sysprof.federation
        if rule.node:
            tier = self.sysprof.tier_of(rule.node)
            report = self._ranked(find_bottleneck, tier, [rule.node], since)
            path = []
        elif federation is not None and federation.zones:
            report, path = self._federated_descent(find_bottleneck, since)
        else:
            candidates = sorted(self.sysprof.monitors)
            report = self._ranked(find_bottleneck, self.gpa, candidates, since)
            path = []
        diagnosis = next(
            (d for d in report.nodes if d.node == report.bottleneck), None
        )
        blame = {
            "node": report.bottleneck if diagnosis else None,
            "stage": diagnosis.dominant_component if diagnosis else None,
            "reason": report.reason,
        }
        if path:
            blame["path"] = path
        return blame

    @staticmethod
    def _ranked(find_bottleneck, tier, candidates, since):
        report = find_bottleneck(tier, candidates, since=since)
        if report.bottleneck in ("", "unknown"):
            # No fine-grained records in the window (e.g. class-granularity
            # nodes); fall back to the whole history.
            report = find_bottleneck(tier, candidates)
        return report

    def _federated_descent(self, find_bottleneck, since):
        """Walk blame down the federation tree, root to leaf.

        Rank the root's direct children (zone pseudo-nodes, via their
        condensed class summaries); while the winner is a zone, descend
        into that zone GPA's store and rank its members plus nested
        zones.  Terminates at a real node two or more tiers below the
        root with its per-interaction stage breakdown intact.
        """
        from repro.core.federation import ZONE_NODE_PREFIX

        federation = self.sysprof.federation
        tier = self.gpa
        # Reparented members publish past their dead zone: the root sees
        # escalated members directly, a standby zone sees its adoptees —
        # blame must rank them alongside the tier's own children.
        candidates = federation.root_candidates() + federation.root_adopted()
        path = []
        while True:
            report = self._ranked(find_bottleneck, tier, candidates, since)
            winner = report.bottleneck
            zone = winner[len(ZONE_NODE_PREFIX):]
            if not winner.startswith(ZONE_NODE_PREFIX) or zone not in federation.zones:
                return report, path
            path.append(winner)
            tier = federation.zones[zone]
            candidates = (
                list(tier.members)
                + federation.adopted_members(tier.zone)
                + [ZONE_NODE_PREFIX + child for child in tier.children]
            )

    # ------------------------------------------------------------------
    # closed-loop drill-down
    # ------------------------------------------------------------------

    def _drill(self, node, now):
        if node in self._drill_open or node not in self.sysprof.monitors:
            return
        saved = self.controller.drill_down(
            node, factor=self.drill_factor,
            granularity=self.drill_granularity,
        )
        monitor = self.sysprof.monitors[node]
        episode = {
            "node": node,
            "raised_at": now,
            "restored_at": None,
            "interval_before": saved["eviction_interval"],
            "interval_during": monitor.daemon.eviction_interval,
        }
        if self.ledger is not None:
            episode["monitoring_before"] = self.ledger.monitoring_time(node)
            episode["busy_before"] = self.ledger.busy_total(node)
        self._drill_open[node] = episode
        self.drill_log.append(episode)

    def _restore(self, node, now):
        episode = self._drill_open.pop(node, None)
        if episode is None:
            return
        self.controller.restore(node)
        episode["restored_at"] = now
        if self.ledger is not None and "monitoring_before" in episode:
            episode["monitoring_during"] = (
                self.ledger.monitoring_time(node) - episode["monitoring_before"]
            )
            episode["busy_during"] = (
                self.ledger.busy_total(node) - episode["busy_before"]
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def dashboard(self, now=None):
        """Render the live text dashboard: percentile table, active
        alerts, and per-node CPU shares."""
        if now is None:
            now = self.gpa.node.sim.now
        since = now - self.lookback
        lines = ["== sysprof diagnosis @ t={:.2f}s ==".format(now)]
        classes = self.gpa.sketches.classes(metric="latency")
        header = "{:<18}{:>8}".format("class", "count") + "".join(
            "{:>9}".format("p{:g}".format(p)) for p in DASHBOARD_PERCENTILES
        )
        lines.append(header)
        for request_class in classes:
            sketch = self.gpa.sketches.merged(
                request_class=request_class, metric="latency", since=since
            )
            if sketch.count == 0:
                continue
            row = "{:<18}{:>8}".format(request_class, sketch.count) + "".join(
                "{:>9}".format("{:.2f}ms".format(sketch.percentile(p) * 1e3))
                for p in DASHBOARD_PERCENTILES
            )
            lines.append(row)
        if len(lines) == 2:
            lines.append("  (no sketch data in window)")
        lines.append("active alerts:")
        if self.active:
            for name in sorted(self.active):
                lines.append("  " + self.active[name].describe())
        else:
            lines.append("  (none)")
        lines.append("node CPU shares:")
        if self.ledger is not None:
            for node in self.ledger.nodes():
                breakdown = self.ledger.breakdown(node, include_idle=False)
                busy = sum(breakdown.values())
                if busy <= 0.0:
                    continue
                shares = "  ".join(
                    "{} {:.1%}".format(category, seconds / busy)
                    for category, seconds in sorted(breakdown.items())
                    if seconds > 0.0
                )
                # The ledger remembers every node that ever burned CPU —
                # including members since evicted from their tier's
                # nodestats history or killed by a fault.  Mark monitored
                # nodes whose telemetry has gone quiet instead of
                # rendering them as live rows.
                label = node
                if node in self.sysprof.monitors:
                    age = self.sysprof.tier_of(node).staleness(node, now)
                    if age is None or age > self.gpa.stale_threshold:
                        label += " (stale)"
                lines.append("  {:<12}{}".format(label, shares))
        else:
            lines.append("  (CPU ledger not installed)")
        if self._drill_open:
            lines.append(
                "drilled nodes: " + ", ".join(sorted(self._drill_open))
            )
        return "\n".join(lines)

    def stats(self):
        return {
            "rules": len(self.rules),
            "evaluations": self.evaluations,
            "alerts_fired": self.alerts_fired,
            "alerts_resolved": self.alerts_resolved,
            "anomaly_alerts": self.anomaly_alerts,
            "retunes": self.retunes,
            "active_alerts": len(self.active),
            "drilldowns": len(self.drill_log),
            "drilled_nodes": sorted(self._drill_open),
        }

    def __repr__(self):
        return "<DiagnosisEngine rules={} active={}>".format(
            len(self.rules), len(self.active)
        )

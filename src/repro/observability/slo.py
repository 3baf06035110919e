"""Declarative SLO rules with hysteresis, evaluated online at the GPA.

A rule is one comparison over a live signal, written the way an operator
would state the objective::

    p99(rubis.search) < 80ms          # latency percentile, any node
    p95(nfs-write@proxy) < 8ms        # latency percentile at one node
    qdepth_p99(nfs-write@backend) < 32   # queue-depth percentile
    cpu_share(backend1, monitoring) < 0.05   # ledger category share
    staleness(backend1) < 2s          # nodestats quiet time
    staleness(backend1)               # ... defaulting to tier.stale_threshold

Thresholds take ``us``/``ms``/``s`` suffixes (converted to seconds) or
are unitless.  The comparison states the *objective*: an alert fires
when it stops holding.  Hysteresis comes from two knobs — a rule must be
violated on ``fire_after`` consecutive evaluations to fire, and while
firing it must satisfy a *stricter* clear threshold (``clear_factor``
of the objective) on ``clear_after`` consecutive evaluations to resolve
— so a value oscillating around the threshold cannot flap the alert.

Missing data counts as the SLO being met: a rule over a request class
that produced no samples inside the lookback window neither fires nor
accumulates clear evidence beyond what "no violation observed" implies.
This module is pure policy — measurement lives in
:meth:`SloRule.measure`, which only calls methods on the analyzer tier
and ledger handed to it, keeping the import graph acyclic.  The caller
picks the tier: a rule that names a node is measured at the tier that
holds that node's records (:meth:`repro.core.toolkit.SysProf.tier_of`).
"""

import re

_PERCENTILE = re.compile(
    r"^(?P<metric>qdepth_)?p(?P<q>\d{1,2}(?:\.\d+)?)"
    r"\((?P<cls>[^)@,]+?)(?:@(?P<node>[^)]+))?\)$"
)
_CPU_SHARE = re.compile(r"^cpu_share\((?P<node>[^,)]+),\s*(?P<category>[^)]+)\)$")
_STALENESS = re.compile(r"^staleness\((?P<node>[^)]+)\)$")
_THRESHOLD = re.compile(r"^(?P<value>-?\d+(?:\.\d+)?)\s*(?P<unit>us|ms|s)?$")

_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}
_OPS = ("<=", ">=", "<", ">")


class SloParseError(ValueError):
    """Raised for a rule string the grammar does not accept."""


def _parse_threshold(text):
    match = _THRESHOLD.match(text.strip())
    if match is None:
        raise SloParseError("bad threshold: {!r}".format(text))
    return float(match.group("value")) * _UNITS[match.group("unit")]


class SloRule:
    """One parsed rule plus its firing state machine.

    ``kind`` is ``latency``, ``qdepth``, ``cpu_share``, or ``staleness``;
    the signal-specific parameters live in ``request_class`` / ``node`` /
    ``category`` / ``quantile`` as applicable.
    """

    def __init__(self, text, fire_after=2, clear_after=2, clear_factor=0.9,
                 lookback=None):
        if not isinstance(text, str):
            raise SloParseError("rule must be a string: {!r}".format(text))
        self.text = " ".join(text.split())
        self.name = self.text
        self.fire_after = max(1, int(fire_after))
        self.clear_after = max(1, int(clear_after))
        self.clear_factor = float(clear_factor)
        self.lookback = lookback  # None: engine default
        self.node = None
        self.request_class = None
        self.category = None
        self.quantile = None
        self._parse()
        # Firing state.
        self.firing = False
        self.last_value = None
        self._violations = 0
        self._clears = 0

    # -- grammar ---------------------------------------------------------

    def _parse(self):
        expr, op, threshold_text = self._split()
        self.op = op
        self.threshold = _parse_threshold(threshold_text) if threshold_text else None
        match = _PERCENTILE.match(expr)
        if match is not None:
            if self.threshold is None:
                raise SloParseError("percentile rule needs a threshold: " + self.text)
            self.kind = "qdepth" if match.group("metric") else "latency"
            self.quantile = float(match.group("q")) / 100.0
            self.request_class = match.group("cls").strip()
            node = match.group("node")
            self.node = node.strip() if node else None
            return
        match = _CPU_SHARE.match(expr)
        if match is not None:
            if self.threshold is None:
                raise SloParseError("cpu_share rule needs a threshold: " + self.text)
            self.kind = "cpu_share"
            self.node = match.group("node").strip()
            self.category = match.group("category").strip()
            return
        match = _STALENESS.match(expr)
        if match is not None:
            # Threshold optional: None resolves to the tier's
            # stale_threshold at measurement time.
            self.kind = "staleness"
            self.node = match.group("node").strip()
            if self.op is None:
                self.op = "<"
            return
        raise SloParseError("unrecognized rule: " + self.text)

    def _split(self):
        for op in _OPS:
            if op in self.text:
                expr, _, rest = self.text.partition(op)
                return expr.strip(), op, rest.strip()
        return self.text.strip(), None, None

    # -- measurement -----------------------------------------------------

    def measure(self, tier, ledger=None, now=None, lookback=None):
        """Current signal value at analyzer ``tier``, or ``None`` when no
        data is available."""
        if self.kind in ("latency", "qdepth"):
            since = None if lookback is None or now is None else now - lookback
            sketch = tier.sketches.merged(
                request_class=self.request_class, metric=self.kind
                if self.kind == "latency" else "qdepth",
                node=self.node, since=since,
            )
            if sketch.count == 0:
                return None
            return sketch.quantile(self.quantile)
        if self.kind == "cpu_share":
            if ledger is None:
                return None
            if self.category == "monitoring":
                return ledger.monitoring_share(self.node)
            busy = ledger.busy_total(self.node)
            if busy <= 0.0:
                return None
            breakdown = ledger.breakdown(self.node, include_idle=False)
            return breakdown.get(self.category, 0.0) / busy
        if self.kind == "staleness" and now is not None:
            return tier.staleness(self.node, now)
        return None

    def effective_threshold(self, tier=None):
        """The objective threshold (staleness may default to the tier's)."""
        if self.threshold is not None:
            return self.threshold
        if self.kind == "staleness" and tier is not None:
            return tier.stale_threshold
        return None

    # -- state machine ---------------------------------------------------

    def _ok(self, value, threshold):
        if self.op == "<":
            return value < threshold
        if self.op == "<=":
            return value <= threshold
        if self.op == ">":
            return value > threshold
        return value >= threshold

    def _clear_threshold(self, threshold):
        """A stricter bound the signal must meet to resolve (hysteresis)."""
        if self.op in ("<", "<="):
            return threshold * self.clear_factor
        return threshold / self.clear_factor if self.clear_factor else threshold

    def update(self, value, threshold=None):
        """Advance the state machine; returns ``"fire"``, ``"clear"``, or
        ``None``.  ``threshold`` overrides the parsed one (used for
        defaulted staleness rules)."""
        self.last_value = value
        threshold = threshold if threshold is not None else self.threshold
        if threshold is None:
            return None
        if self.firing:
            ok = value is None or self._ok(value, self._clear_threshold(threshold))
            if ok:
                self._clears += 1
                if self._clears >= self.clear_after:
                    self.firing = False
                    self._clears = 0
                    return "clear"
            else:
                self._clears = 0
            return None
        violated = value is not None and not self._ok(value, threshold)
        if violated:
            self._violations += 1
            if self._violations >= self.fire_after:
                self.firing = True
                self._violations = 0
                return "fire"
        else:
            self._violations = 0
        return None

    def format_value(self, value):
        """Render a measured value in the rule's natural unit."""
        if value is None:
            return "n/a"
        if self.kind == "latency":
            return "{:.2f}ms".format(value * 1e3)
        if self.kind == "staleness":
            return "{:.2f}s".format(value)
        if self.kind == "cpu_share":
            return "{:.1%}".format(value)
        return "{:.1f}".format(value)

    def __repr__(self):
        return "<SloRule {!r} firing={}>".format(self.text, self.firing)


class ExternalRule:
    """Rule-shaped shim for alerts originated outside the SLO grammar.

    The anomaly detectors (and anything else calling
    ``DiagnosisEngine.external_fire``) have no parsed comparison to
    attach an :class:`Alert` to; this carries just what alert rendering
    needs — a normalized ``name``/``text`` and a value formatter that
    prints a plain number.
    """

    def __init__(self, name):
        self.name = " ".join(name.split())
        self.text = self.name

    def format_value(self, value):
        if value is None:
            return "n/a"
        return "{:.2f}".format(value)

    def __repr__(self):
        return "<ExternalRule {!r}>".format(self.text)


class Alert:
    """One firing (or since-resolved) rule violation with blame."""

    def __init__(self, rule, fired_at, value, blame=None, id=None,
                 source="rule"):
        self.rule = rule
        self.fired_at = fired_at
        self.resolved_at = None
        self.value_at_fire = value
        self.value_at_resolve = None
        self.blame = blame or {}
        # Unique per engine (monotone), assigned at fire time so rule
        # alerts and synthetic anomaly alerts on the same node can never
        # collide; ``source`` is "rule" or "anomaly".
        self.id = id
        self.source = source

    @property
    def firing(self):
        return self.resolved_at is None

    @property
    def state(self):
        return "firing" if self.firing else "resolved"

    def resolve(self, now, value=None):
        self.resolved_at = now
        self.value_at_resolve = value

    def describe(self):
        parts = [
            "[{}]".format(self.state.upper()),
            self.rule.text,
            "value={}".format(self.rule.format_value(self.value_at_fire)),
            "since t={:.2f}s".format(self.fired_at),
        ]
        if self.resolved_at is not None:
            parts.append("resolved t={:.2f}s".format(self.resolved_at))
        if self.blame.get("node"):
            parts.append(
                "blame={}/{}".format(
                    self.blame["node"], self.blame.get("stage", "?")
                )
            )
        return " ".join(parts)

    def as_dict(self):
        return {
            "id": self.id,
            "source": self.source,
            "rule": self.rule.text,
            "state": self.state,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "value_at_fire": self.value_at_fire,
            "value_at_resolve": self.value_at_resolve,
            "blame": dict(self.blame),
        }

    def __repr__(self):
        return "<Alert {}>".format(self.describe())


def parse_rules(texts, **kwargs):
    """Parse an iterable of rule strings into :class:`SloRule` objects."""
    return [
        text if isinstance(text, SloRule) else SloRule(text, **kwargs)
        for text in texts
    ]

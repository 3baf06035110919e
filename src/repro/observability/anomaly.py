"""Statistical anomaly detection over recorded metric series.

SLO rules (:mod:`repro.observability.slo`) state *known* objectives; the
detectors here catch the unknown ones — a metric drifting out of its own
recent distribution, or a counter suddenly growing much faster than it
used to — before any hand-written threshold trips.  Two detectors:

``zscore``
    Robust z-score of the newest sample against a trailing window:
    ``|x - median| / (1.4826 * MAD)``.  Median/MAD instead of mean/std
    so a single spike cannot drag its own baseline along and mask
    itself.  A constant window (MAD == 0) only flags a value that
    actually moved; a move within float rounding is no move.

``rate``
    The same robust z-score applied to the per-interval derivative of a
    cumulative series (e.g. ``sysprof.node.*.cpu_busy`` busy-seconds):
    catches a CPU hog as a *slope* change within a couple of samples,
    long before a latency percentile climbs over an SLO threshold.

Each (detector, series) pair runs its own hysteresis — ``fire_after``
consecutive anomalous samples to fire, ``clear_after`` normal ones to
resolve — and surfaces through the existing alert lifecycle via
:meth:`DiagnosisEngine.external_fire` / ``external_clear``, so anomaly
alerts stream to the same subscribers, render on the same dashboard,
and carry engine-unique ids that cannot collide with rule alerts.
Detection reads only the :class:`~repro.observability.recorder.TimeSeriesRecorder`
ring buffers: host-side pure, no simulated CPU, no trace perturbation
(anomaly alerts never drill down).
"""

#: Scale factor making MAD a consistent estimator of the std deviation
#: for normal data.
MAD_SCALE = 1.4826

#: Deviation from the baseline median, relative to the median, that is
#: float rounding rather than movement.  A rate is a difference of two
#: cumulative samples over a difference of two sample times, so a
#: constant slope comes back jittering in its last bits (about 1e-14
#: relative in the synthetic scenario's first seconds, growing with the
#: run's length); against a flat window that jitter would score ``inf``.
ROUNDING_TOLERANCE = 1e-6

#: Prefix for anomaly alert names — keeps the rule namespace disjoint
#: from the SLO grammar (which never produces a name with this prefix).
ALERT_PREFIX = "anomaly:"


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_zscore(value, window):
    """``|value - median(window)| / (MAD_SCALE * MAD)`` (0.0 if flat).

    Deviations within ``ROUNDING_TOLERANCE`` of the median are rounding:
    such a value scores 0.0, and a window whose MAD is that small is
    flat.  With a flat window the deviation scale is zero; any departure
    is infinitely surprising, so return ``inf`` when the value moved and
    ``0.0`` when it matches the constant.
    """
    if not window:
        return 0.0
    med = _median(window)
    rounding = ROUNDING_TOLERANCE * abs(med)
    deviation = abs(value - med)
    if deviation <= rounding:
        return 0.0
    mad = _median([abs(v - med) for v in window])
    if mad <= rounding:
        return float("inf")
    return deviation / (MAD_SCALE * mad)


class SeriesDetector:
    """One detector bound to one metric name pattern.

    ``mode`` is ``"zscore"`` (level anomalies) or ``"rate"`` (slope
    anomalies on cumulative series).  ``window`` trailing samples form
    the baseline; the newest sample is scored against them and is
    anomalous when its robust z-score exceeds ``threshold``.
    """

    def __init__(self, pattern, mode="zscore", window=12, threshold=6.0,
                 fire_after=2, clear_after=3, min_baseline=5):
        if mode not in ("zscore", "rate"):
            raise ValueError("mode must be 'zscore' or 'rate'")
        if window < 2:
            raise ValueError("window must be >= 2")
        self.pattern = pattern
        self.mode = mode
        self.window = int(window)
        self.threshold = float(threshold)
        self.fire_after = max(1, int(fire_after))
        self.clear_after = max(1, int(clear_after))
        self.min_baseline = max(2, int(min_baseline))
        # Per-series hysteresis state.
        self._hits = {}    # name -> consecutive anomalous samples
        self._oks = {}     # name -> consecutive normal samples while firing
        self.firing = {}   # name -> score at fire time

    def _points(self, recorder, name):
        if self.mode == "rate":
            return [rate for _ts, rate in recorder.rate(name)]
        return recorder.values(name)

    def score(self, recorder, name):
        """Robust z-score of ``name``'s newest sample, or ``None``.

        ``None`` means not enough history yet: the baseline window (which
        excludes the newest sample) must hold at least ``min_baseline``
        points before a score is meaningful.
        """
        points = self._points(recorder, name)
        if len(points) < self.min_baseline + 1:
            return None
        newest = points[-1]
        baseline = points[-(self.window + 1):-1]
        return robust_zscore(newest, baseline)

    def observe(self, recorder, name):
        """Advance hysteresis for one series; ``"fire"``/``"clear"``/None."""
        value = self.score(recorder, name)
        anomalous = value is not None and value > self.threshold
        if name in self.firing:
            if anomalous:
                self._oks[name] = 0
            else:
                self._oks[name] = self._oks.get(name, 0) + 1
                if self._oks[name] >= self.clear_after:
                    del self.firing[name]
                    self._oks[name] = 0
                    return "clear"
            return None
        if anomalous:
            self._hits[name] = self._hits.get(name, 0) + 1
            if self._hits[name] >= self.fire_after:
                self.firing[name] = value
                self._hits[name] = 0
                return "fire"
        else:
            self._hits[name] = 0
        return None

    def alert_name(self, name):
        return "{}{}({})".format(ALERT_PREFIX, self.mode, name)

    def __repr__(self):
        return "<SeriesDetector {} {!r} firing={}>".format(
            self.mode, self.pattern, len(self.firing)
        )


def default_detectors():
    """The stock detector set the service supervisor installs.

    Slope watch on per-node CPU busy-seconds (the fastest observable
    signature of a CPU hog) and a level watch on daemon send errors.
    """
    return [
        SeriesDetector("sysprof.node.*.cpu_busy", mode="rate",
                       window=12, threshold=6.0),
        SeriesDetector("sysprof.daemon.*.send_errors", mode="zscore",
                       window=12, threshold=6.0),
    ]


class AnomalyMonitor:
    """Run detectors over a recorder and surface anomalies as alerts.

    Call :meth:`check` after every :meth:`TimeSeriesRecorder.sample`
    (the service supervisor does this at each slice boundary).  Fires
    and clears go through ``engine.external_fire`` / ``external_clear``
    when a :class:`~repro.observability.diagnosis.DiagnosisEngine` is
    attached, which gives them ids, listener events, and dashboard rows;
    without an engine the monitor still tracks ``active`` locally.
    """

    def __init__(self, recorder, detectors=None, engine=None):
        self.recorder = recorder
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.engine = engine
        self.active = {}   # alert name -> score at fire
        self.checks = 0
        self.fired = 0
        self.cleared = 0

    def _blame(self, series_name):
        """Best-effort node attribution from the metric name.

        Registry names follow ``sysprof.<component>.<node>.<metric>``;
        the third dotted part is the node for the per-node families the
        stock detectors watch.
        """
        parts = series_name.split(".")
        node = parts[2] if len(parts) >= 4 else None
        return {"node": node, "stage": "anomaly", "reason": series_name}

    def check(self, now=None):
        """Score every (detector, matching series) pair once.

        Returns the list of transition events, each ``{"state": "fire" |
        "clear", "name": alert_name, "series": metric, "score": z}``.
        """
        self.checks += 1
        events = []
        for detector in self.detectors:
            for name in self.recorder.names(detector.pattern):
                transition = detector.observe(self.recorder, name)
                if transition is None:
                    continue
                alert_name = detector.alert_name(name)
                score = detector.firing.get(name)
                if transition == "fire":
                    self.fired += 1
                    self.active[alert_name] = score
                    if self.engine is not None:
                        self.engine.external_fire(
                            alert_name, score, now=now,
                            blame=self._blame(name),
                        )
                else:
                    self.cleared += 1
                    self.active.pop(alert_name, None)
                    if self.engine is not None:
                        self.engine.external_clear(alert_name, now=now)
                events.append({
                    "state": transition, "name": alert_name,
                    "series": name, "score": score,
                })
        return events

    def stats(self):
        """Counters for the metrics registry (``sysprof.anomaly``)."""
        return {
            "detectors": len(self.detectors),
            "checks": self.checks,
            "fired": self.fired,
            "cleared": self.cleared,
            "active": len(self.active),
        }

    def __repr__(self):
        return "<AnomalyMonitor detectors={} active={}>".format(
            len(self.detectors), len(self.active)
        )

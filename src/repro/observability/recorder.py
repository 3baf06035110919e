"""A ring-buffer time-series store over the metrics registry.

The service layer pumps the simulator in bounded slices; at every slice
boundary the supervisor calls :meth:`TimeSeriesRecorder.sample`, which
takes one timestamped :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`
and appends each selected metric's value to a fixed-capacity ring
buffer.  That history is what the streaming dashboard's sparklines and
the :mod:`~repro.observability.anomaly` detectors read — neither ever
touches the simulator, so recording is host-side pure: it charges no
simulated CPU, schedules no events, and cannot move a same-seed trace
digest.

Staleness: every point carries the snapshot's sample timestamp, and the
recorder additionally tracks when each series last *changed* value.  A
series whose value has been frozen for longer than a threshold (a dead
daemon's counters, an evicted member's gauges) is reported by
:meth:`stale` so the dashboard can mark it instead of silently
re-plotting the old number as if it were live.
"""

from collections import deque
from fnmatch import fnmatchcase

#: Default ring capacity per series (points, not seconds).
DEFAULT_CAPACITY = 512


class TimeSeriesRecorder:
    """Fixed-memory history of selected registry metrics."""

    def __init__(self, registry, capacity=DEFAULT_CAPACITY, include=None,
                 exclude=None):
        """``include``/``exclude`` are ``fnmatch`` patterns over metric
        names (e.g. ``sysprof.node.*.cpu_busy``); ``include=None`` keeps
        everything.  Excludes win over includes."""
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (rates need two points)")
        self.registry = registry
        self.capacity = capacity
        self.include = tuple(include) if include else None
        self.exclude = tuple(exclude) if exclude else ()
        self._series = {}  # name -> deque[(ts, value)]
        self._kinds = {}  # name -> metric kind at last sample
        self._last_change = {}  # name -> ts the value last differed
        self._keep_cache = {}  # name -> bool (pattern match memo)
        self.samples = 0
        self.points_recorded = 0

    # -- recording ------------------------------------------------------

    def _keep(self, name):
        kept = self._keep_cache.get(name)
        if kept is None:
            kept = (
                self.include is None
                or any(fnmatchcase(name, pat) for pat in self.include)
            ) and not any(fnmatchcase(name, pat) for pat in self.exclude)
            self._keep_cache[name] = kept
        return kept

    def sample(self, now):
        """Scrape the registry once and append every selected metric.

        Returns the number of points recorded this scrape.  All points
        of one scrape share the snapshot's ``ts`` — see
        :meth:`MetricsRegistry.snapshot`.
        """
        snap = self.registry.snapshot(now)
        ts = snap["ts"]
        recorded = 0
        for name, (kind, value) in snap["metrics"].items():
            if not self._keep(name):
                continue
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = deque(maxlen=self.capacity)
                self._last_change[name] = ts
            elif series[-1][1] != value:
                self._last_change[name] = ts
            self._kinds[name] = kind
            series.append((ts, value))
            recorded += 1
        self.samples += 1
        self.points_recorded += recorded
        return recorded

    # -- reads ----------------------------------------------------------

    def names(self, pattern=None):
        """Recorded series names, optionally filtered by fnmatch pattern."""
        names = sorted(self._series)
        if pattern is None:
            return names
        return [name for name in names if fnmatchcase(name, pattern)]

    def kind(self, name):
        return self._kinds.get(name)

    def series(self, name, since=None):
        """``[(ts, value)]`` for one metric (empty if never recorded)."""
        points = self._series.get(name)
        if points is None:
            return []
        if since is None:
            return list(points)
        return [(ts, value) for ts, value in points if ts >= since]

    def values(self, name, since=None):
        return [value for _ts, value in self.series(name, since=since)]

    def latest(self, name):
        """Newest ``(ts, value)`` or ``None``."""
        points = self._series.get(name)
        return points[-1] if points else None

    def rate(self, name):
        """Per-interval derivative ``[(ts, dvalue/dt)]`` of one series.

        The natural reading for cumulative counters and busy-seconds
        gauges: the value's growth rate per simulated second between
        adjacent samples.  Zero-width intervals are skipped.
        """
        points = self.series(name)
        rates = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt = t1 - t0
            if dt > 0.0:
                rates.append((t1, (v1 - v0) / dt))
        return rates

    def stale(self, now, threshold):
        """``{name: seconds_frozen}`` for series unchanged past ``threshold``.

        "Frozen" means the recorded value has not moved — the signature
        of a source whose producer died while the registry keeps
        re-serving its last numbers.
        """
        out = {}
        for name, changed_at in self._last_change.items():
            age = now - changed_at
            if age > threshold:
                out[name] = age
        return out

    def stats(self):
        """Counters for the metrics registry (``sysprof.recorder``)."""
        return {
            "samples": self.samples,
            "points_recorded": self.points_recorded,
            "series": len(self._series),
        }

    def __repr__(self):
        return "<TimeSeriesRecorder series={} samples={}>".format(
            len(self._series), self.samples
        )

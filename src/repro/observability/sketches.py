"""Mergeable log-bucketed quantile sketches for streaming diagnosis.

The online diagnosis engine needs per-request-class latency and
queue-depth distributions at the GPA without shipping every interaction
record: a node at 10k req/s and a node at 10 req/s must cost the same
dissemination bandwidth.  This module provides the standard answer — a
DDSketch-style quantile sketch over logarithmic buckets:

* ``bucket(v) = ceil(log(v) / log(gamma))`` with
  ``gamma = (1 + alpha) / (1 - alpha)``, so any quantile estimate is
  within *relative* error ``alpha`` of the true value (the benchmark
  asserts ``p99`` error well under 2% at the default ``alpha = 0.01``);
* two sketches over the same ``alpha`` merge by adding bucket counts —
  merging windows from many nodes is exact (the merged sketch equals
  the sketch of the concatenated stream);
* the bucket table is bounded: when it exceeds ``max_buckets`` the two
  *lowest* buckets collapse into one, sacrificing low-quantile
  resolution first and preserving the tail percentiles SLOs care about.

A sketch serializes to one fixed-width row (``SKETCH_FORMAT`` in
:mod:`repro.core.lpa`) whose bucket table is a run-length string packed
by :func:`repro.core.encoding.pack_count_runs`; :meth:`to_row` collapses
until the payload fits, so a sketch row always has bounded size.

Everything here is host-side arithmetic: the *simulated* CPU cost of
updates and merges is charged separately (``CostModel.sketch_update`` /
``sketch_merge``) by the LPA and GPA code that drives these objects.
"""

import math
from collections import deque

#: Metrics the interaction sketch emitter maintains per request class.
SKETCH_METRICS = ("latency", "qdepth")

#: Width of the bucket-table string field in ``SKETCH_FORMAT`` rows.
SKETCH_PAYLOAD_WIDTH = 2560

#: Values at or below this are counted in the zero bucket (exact).
MIN_TRACKABLE = 1e-9


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    ``alpha`` is the relative-accuracy guarantee; ``max_buckets`` bounds
    memory and wire size by collapsing the lowest buckets together.
    """

    __slots__ = (
        "alpha", "gamma", "_inv_log_gamma", "max_buckets", "buckets",
        "zero_count", "count", "min_value", "max_value", "sum_value",
        "collapses", "_floor",
    )

    def __init__(self, alpha=0.01, max_buckets=256):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1), got {}".format(alpha))
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        self.alpha = float(alpha)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._inv_log_gamma = 1.0 / math.log(self.gamma)
        self.max_buckets = int(max_buckets)
        self.buckets = {}  # bucket index -> count
        self.zero_count = 0
        self.count = 0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.sum_value = 0.0
        self.collapses = 0
        # Once a collapse has happened, new values below the collapsed
        # floor clamp into it instead of reopening low buckets (otherwise
        # a low-heavy stream collapses on every insert).
        self._floor = None

    # -- update ----------------------------------------------------------

    def add(self, value, count=1):
        """Record ``value`` (``count`` times).  Non-positive values land
        in the exact zero bucket."""
        if count < 1:
            raise ValueError("count must be >= 1")
        value = float(value)
        if value > MIN_TRACKABLE:
            index = math.ceil(math.log(value) * self._inv_log_gamma)
            if self._floor is not None and index < self._floor:
                index = self._floor
            self.buckets[index] = self.buckets.get(index, 0) + count
            if len(self.buckets) > self.max_buckets:
                self._collapse_lowest()
        else:
            value = 0.0
            self.zero_count += count
        self.count += count
        self.sum_value += value * count
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        return self

    def update_many(self, values):
        """Record a batch of values (vectorized when numpy is installed).

        The numpy kernel computes every bucket index in one
        ``np.log``/``np.ceil`` pass and aggregates per-bucket counts with
        ``np.bincount``; without numpy it degrades to a plain
        :meth:`add` loop.  numpy is imported on the first call, not with
        this module, so no simulation run loads it.  Counts,
        ``zero_count``, ``min_value`` and ``max_value`` are exactly what
        the loop would produce.  Two
        deliberate deviations keep the kernel fast, and are why the
        *in-simulation* SketchLPA sticks to scalar :meth:`add` (see
        docs/performance.md): ``np.log`` may differ from ``math.log`` by
        one ulp (a value sitting exactly on a bucket boundary can land
        one bucket over, still within the ``alpha`` guarantee), and
        ``sum_value`` accumulates in numpy's pairwise order rather than
        strict stream order.  Batch consumers — benchmarks, the
        profiling harness, offline analysis — don't care; trace-hash
        determinism does.
        """
        try:
            import numpy as np
        except ImportError:
            add = self.add
            for value in values:
                add(value)
            return self
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("update_many expects a 1-d sequence of values")
        total = arr.size
        if total == 0:
            return self
        positive = arr[arr > MIN_TRACKABLE]
        zeros = total - positive.size
        if positive.size:
            indices = np.ceil(
                np.log(positive) * self._inv_log_gamma
            ).astype(np.int64)
            if self._floor is not None:
                np.maximum(indices, self._floor, out=indices)
            low = int(indices.min())
            high = int(indices.max())
            buckets = self.buckets
            # bincount wants a dense range; fall back to unique counting
            # when the index span dwarfs the sample count (tiny alpha
            # over a huge dynamic range).
            if high - low < 4 * indices.size + 1024:
                counts = np.bincount(indices - low)
                for offset, count in enumerate(counts.tolist()):
                    if count:
                        index = low + offset
                        buckets[index] = buckets.get(index, 0) + count
            else:
                uniq, counts = np.unique(indices, return_counts=True)
                for index, count in zip(uniq.tolist(), counts.tolist()):
                    buckets[index] = buckets.get(index, 0) + count
            while len(buckets) > self.max_buckets:
                self._collapse_lowest()
            self.sum_value += float(positive.sum())
            batch_min = float(positive.min())
            batch_max = float(positive.max())
            if zeros:
                batch_min = 0.0
                batch_max = max(batch_max, 0.0)
            if batch_min < self.min_value:
                self.min_value = batch_min
            if batch_max > self.max_value:
                self.max_value = batch_max
        elif zeros:
            if 0.0 < self.min_value:
                self.min_value = 0.0
            if 0.0 > self.max_value:
                self.max_value = 0.0
        self.zero_count += zeros
        self.count += total
        return self

    def merge(self, other):
        """Fold ``other`` into this sketch (same ``alpha`` required)."""
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                "cannot merge sketches with different alpha "
                "({} vs {})".format(self.alpha, other.alpha)
            )
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        while len(self.buckets) > self.max_buckets:
            self._collapse_lowest()
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum_value += other.sum_value
        if other.count:
            self.min_value = min(self.min_value, other.min_value)
            self.max_value = max(self.max_value, other.max_value)
        return self

    def _collapse_lowest(self):
        """Merge the two lowest buckets (low quantiles blur; the tail —
        what SLO rules read — keeps full resolution)."""
        ordered = sorted(self.buckets)
        lowest, second = ordered[0], ordered[1]
        self.buckets[second] += self.buckets.pop(lowest)
        self._floor = second
        self.collapses += 1

    # -- query -----------------------------------------------------------

    def _value(self, index):
        """Midpoint estimate for a bucket: within ``alpha`` of any true
        value in ``(gamma**(i-1), gamma**i]``."""
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def quantile(self, q):
        """The q-quantile estimate (``q`` in [0, 1]); None when empty."""
        if self.count == 0:
            return None
        q = min(1.0, max(0.0, float(q)))
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        if cumulative > rank:
            return 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                return self._value(index)
        return self.max_value

    def percentile(self, p):
        """``p`` in [0, 100] — convenience over :meth:`quantile`."""
        return self.quantile(p / 100.0)

    @property
    def mean(self):
        return self.sum_value / self.count if self.count else 0.0

    def copy(self):
        duplicate = QuantileSketch(alpha=self.alpha, max_buckets=self.max_buckets)
        duplicate.buckets = dict(self.buckets)
        duplicate.zero_count = self.zero_count
        duplicate.count = self.count
        duplicate.min_value = self.min_value
        duplicate.max_value = self.max_value
        duplicate.sum_value = self.sum_value
        duplicate.collapses = self.collapses
        duplicate._floor = self._floor
        return duplicate

    # -- wire format ------------------------------------------------------

    def to_row(self, node, request_class, metric, window_start, window_end,
               width=SKETCH_PAYLOAD_WIDTH):
        """Serialize as one ``SKETCH_FORMAT``-ordered row tuple.

        Collapses lowest buckets until the run-length payload fits in
        ``width`` characters, so the row is always encodable into the
        fixed-width string field regardless of how spread the data is.
        """
        # Deferred import: repro.core.lpa imports this module, so a
        # top-level import of repro.core here would be circular.
        from repro.core.encoding import pack_count_runs

        base, payload = pack_count_runs(self.buckets)
        while len(payload) > width and len(self.buckets) > 1:
            self._collapse_lowest()
            base, payload = pack_count_runs(self.buckets)
        empty = self.count == 0
        return (
            node,
            request_class,
            metric,
            float(window_start),
            float(window_end),
            self.count,
            self.zero_count,
            0.0 if empty else self.min_value,
            0.0 if empty else self.max_value,
            self.sum_value,
            self.alpha,
            base,
            payload,
        )

    @classmethod
    def from_row(cls, record, max_buckets=None):
        """Rebuild a sketch from a decoded ``SKETCH_FORMAT`` record dict."""
        from repro.core.encoding import unpack_count_runs

        buckets = unpack_count_runs(record["base_index"], record["buckets"])
        sketch = cls(
            alpha=record["alpha"],
            max_buckets=max_buckets or max(256, len(buckets)),
        )
        sketch.buckets = buckets
        sketch.zero_count = int(record["zero_count"])
        sketch.count = int(record["count"])
        sketch.sum_value = float(record["sum_value"])
        if sketch.count:
            sketch.min_value = float(record["min_value"])
            sketch.max_value = float(record["max_value"])
        return sketch

    def __repr__(self):
        return "<QuantileSketch n={} buckets={} alpha={}>".format(
            self.count, len(self.buckets), self.alpha
        )


class SketchStore:
    """The GPA's windowed sketch series, merged on demand.

    Each ingested ``SKETCH_FORMAT`` record is one eviction window from
    one node; the store keeps a bounded history per ``(node,
    request_class, metric)`` keyed by the window-end time corrected to
    the reference clock, so SLO rules can merge "the last N seconds"
    across nodes regardless of local clock skew.
    """

    def __init__(self, clock_table=None, history=256):
        self.clock_table = clock_table
        self.history = history
        self.series = {}  # (node, request_class, metric) -> deque[(end_ref, sketch)]
        self.rows_ingested = 0

    def ingest(self, record):
        """Store one decoded sketch record (a dict of SKETCH_FORMAT fields)."""
        node = record["node"]
        end = record["window_end"]
        if self.clock_table is not None and self.clock_table.known(node):
            end = self.clock_table.to_reference(node, end)
        key = (node, record["request_class"], record["metric"])
        windows = self.series.get(key)
        if windows is None:
            windows = self.series[key] = deque(maxlen=self.history)
        windows.append((end, QuantileSketch.from_row(record)))
        self.rows_ingested += 1

    def clear(self):
        """Drop in-memory windows (GPA restart: history dies with the
        process; ``rows_ingested`` stays cumulative like every counter)."""
        self.series.clear()

    # -- views ------------------------------------------------------------

    def classes(self, metric="latency"):
        """Request classes with at least one stored window."""
        return sorted({
            key[1] for key in self.series if key[2] == metric
        })

    def nodes(self, request_class=None, metric="latency"):
        return sorted({
            key[0]
            for key in self.series
            if key[2] == metric
            and (request_class is None or key[1] == request_class)
        })

    def merged(self, request_class=None, metric="latency", node=None,
               since=None, alpha=None):
        """One sketch merging every matching window (``None`` matches all).

        ``since`` keeps only windows that *ended* at or after that
        reference time — the engine's sliding lookback.  Returns an empty
        sketch (count 0) when nothing matches.
        """
        merged = None
        for (key_node, key_class, key_metric), windows in sorted(self.series.items()):
            if key_metric != metric:
                continue
            if request_class is not None and key_class != request_class:
                continue
            if node is not None and key_node != node:
                continue
            for end, sketch in windows:
                if since is not None and end < since:
                    continue
                if merged is None:
                    merged = sketch.copy()
                else:
                    merged.merge(sketch)
        if merged is None:
            merged = QuantileSketch(alpha=alpha or 0.01)
        return merged

    def latest_window_end(self, node=None):
        """Most recent corrected window-end seen (None when empty)."""
        latest = None
        for (key_node, _cls, _metric), windows in self.series.items():
            if node is not None and key_node != node:
                continue
            if windows:
                end = windows[-1][0]
                if latest is None or end > latest:
                    latest = end
        return latest

    def stats(self):
        return {
            "rows_ingested": self.rows_ingested,
            "series": len(self.series),
        }

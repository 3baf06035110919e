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

A window rebuilt from a row (:meth:`QuantileSketch.from_row`, which the
tiers' :class:`SketchStore` uses) keeps the row's run string as its
bucket table, the way the paper's GPA keeps condensed windows in their
compact binary form: reads that change nothing (``quantile``, ``copy``,
``to_row``, merging it into another sketch) walk the runs and keep
nothing, and the first change parses them into a dict once.

Everything here is host-side arithmetic: the *simulated* CPU cost of
updates and merges is charged separately (``CostModel.sketch_update`` /
``sketch_merge``) by the LPA and GPA code that drives these objects.
"""

import math
import sys
from collections import deque

#: Metrics the interaction sketch emitter maintains per request class.
SKETCH_METRICS = ("latency", "qdepth")

#: Width of the bucket-table string field in ``SKETCH_FORMAT`` rows.
SKETCH_PAYLOAD_WIDTH = 2560

#: Values at or below this are counted in the zero bucket (exact).
MIN_TRACKABLE = 1e-9

#: ``log`` of the largest float: ``gamma ** index`` is finite while
#: ``abs(index) * log(gamma)`` stays below it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    ``alpha`` is the relative-accuracy guarantee; ``max_buckets`` bounds
    memory and wire size by collapsing the lowest buckets together.
    """

    __slots__ = (
        "alpha", "gamma", "_inv_log_gamma", "max_buckets", "_buckets",
        "_runs", "zero_count", "count", "min_value", "max_value",
        "sum_value", "collapses", "_floor",
    )

    def __init__(self, alpha=0.01, max_buckets=256):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1), got {}".format(alpha))
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        self.alpha = float(alpha)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        if self.gamma == 1.0:  # log(gamma) would be 0
            raise ValueError("alpha {} is below float resolution".format(alpha))
        self._inv_log_gamma = 1.0 / math.log(self.gamma)
        self.max_buckets = int(max_buckets)
        self._buckets = {}  # bucket index -> count; None while _runs is set
        # A wire-form window's ``(base_index, payload)`` run string (see
        # from_row), parsed into _buckets by the first change.
        self._runs = None
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

    @property
    def buckets(self):
        """The ``{index: count}`` table.  A wire-form window parses its
        runs into it here, once, and keeps the dict from then on."""
        if self._runs is not None:
            from repro.core.encoding import unpack_count_runs

            self._buckets = unpack_count_runs(*self._runs)
            self._runs = None
        return self._buckets

    def _pairs(self):
        """``(index, count)`` pairs without changing the sketch: walked
        from a wire-form window's runs (ascending), else the table's
        items."""
        if self._runs is None:
            return self._buckets.items()
        from repro.core.encoding import iter_count_runs

        return iter_count_runs(*self._runs)

    # -- update ----------------------------------------------------------

    def add(self, value):
        """Record ``value`` once.  Non-positive values land in the exact
        zero bucket."""
        value = float(value)
        if value > MIN_TRACKABLE:
            buckets = self.buckets
            index = math.ceil(math.log(value) * self._inv_log_gamma)
            if self._floor is not None and index < self._floor:
                index = self._floor
            buckets[index] = buckets.get(index, 0) + 1
            if len(buckets) > self.max_buckets:
                self._collapse_lowest()
        else:
            value = 0.0
            self.zero_count += 1
        self.count += 1
        self.sum_value += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        return self

    def extend(self, values):
        """Record each of ``values`` once: the exact batch form of an
        :meth:`add` loop.

        Buckets, collapses, the floor, ``zero_count``, min and max come
        out as the loop would leave them, and ``sum_value`` adds in
        stream order, so the float sum is bit-identical too.  The
        counters are committed in a ``finally``: a value that ``float()``
        refuses (or an infinity, whose bucket index overflows) leaves
        the values before it recorded, exactly as the loop would.
        """
        buckets = self.buckets
        get = buckets.get
        log = math.log
        ceil = math.ceil
        inv_log_gamma = self._inv_log_gamma
        max_buckets = self.max_buckets
        floor = self._floor
        zeros = count = 0
        total = self.sum_value
        low = self.min_value
        high = self.max_value
        try:
            for value in values:
                value = float(value)
                if value > MIN_TRACKABLE:
                    index = ceil(log(value) * inv_log_gamma)
                    if floor is not None and index < floor:
                        index = floor
                    buckets[index] = get(index, 0) + 1
                    if len(buckets) > max_buckets:
                        self._collapse_lowest()
                        floor = self._floor
                else:
                    value = 0.0
                    zeros += 1
                count += 1
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
        finally:
            self.zero_count += zeros
            self.count += count
            self.sum_value = total
            self.min_value = low
            self.max_value = high
        return self

    def update_many(self, values):
        """Record a batch of values (vectorized when numpy is installed).

        The numpy kernel computes every bucket index in one
        ``np.log``/``np.ceil`` pass and aggregates per-bucket counts with
        ``np.bincount``; without numpy it degrades to :meth:`extend`.
        numpy is imported on the first call, not with
        this module, so no simulation run loads it.  Counts,
        ``zero_count``, ``min_value`` and ``max_value`` are exactly what
        an :meth:`add` loop would produce.  Two
        deliberate deviations keep the kernel fast, and are why the
        *in-simulation* LPAs stick to :meth:`add` and :meth:`extend` (see
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
            return self.extend(values)
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
        buckets = self.buckets
        get = buckets.get
        for index, count in other._pairs():
            buckets[index] = get(index, 0) + count
        while len(buckets) > self.max_buckets:
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
        buckets = self.buckets
        ordered = sorted(buckets)
        lowest, second = ordered[0], ordered[1]
        buckets[second] += buckets.pop(lowest)
        self._floor = second
        self.collapses += 1

    # -- query -----------------------------------------------------------

    def _value(self, index):
        """Midpoint estimate for a bucket: within ``alpha`` of any true
        value in ``(gamma**(i-1), gamma**i]``.  A bucket whose estimate
        overflows the float range answers the window's ``max_value``."""
        try:
            value = 2.0 * self.gamma ** index / (self.gamma + 1.0)
        except OverflowError:
            return self.max_value
        return value if value < math.inf else self.max_value

    def quantile(self, q):
        """The q-quantile estimate (``q`` in [0, 1]); None when empty."""
        if self.count == 0:
            return None
        q = min(1.0, max(0.0, float(q)))
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        if cumulative > rank:
            return 0.0
        pairs = self._pairs()
        if self._runs is None:  # a walk of the runs is already ascending
            pairs = sorted(pairs)
        for index, count in pairs:
            cumulative += count
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
        if self._runs is None:
            duplicate._buckets = dict(self._buckets)
        else:  # a str is immutable: the copy shares the run string
            duplicate._buckets = None
            duplicate._runs = self._runs
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
        A wire-form window whose runs fit is returned as it came.
        """
        # Deferred import: repro.core.lpa imports this module, so a
        # top-level import of repro.core here would be circular.
        from repro.core.encoding import pack_count_runs

        runs = self._runs
        if runs is not None and len(runs[1]) <= width:
            base, payload = runs
        else:
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
    def from_row(cls, record):
        """Rebuild a sketch from a decoded ``SKETCH_FORMAT`` record dict.

        The sketch is a wire-form window: it keeps the row's
        ``(base_index, buckets)`` runs as its table until something
        changes it.  Raises ``ValueError`` for runs that
        :func:`~repro.core.encoding.pack_count_runs` could not have
        emitted, for an ``alpha`` the sketch refuses and for a
        ``base_index`` past the indices whose ``gamma ** index`` is a
        float (±35,487 at ``alpha`` 0.01), so every kept run string
        parses and starts in range.
        """
        from repro.core.encoding import is_count_runs

        payload = record["buckets"]
        if not is_count_runs(payload):
            raise ValueError("malformed bucket runs {!r}".format(payload[:40]))
        sketch = cls(
            alpha=record["alpha"],
            max_buckets=max(256, _run_count(payload)),
        )
        base = int(record["base_index"])
        if abs(base) > _LOG_FLOAT_MAX * sketch._inv_log_gamma:
            raise ValueError("base_index {} is past the float range".format(base))
        if payload:
            sketch._buckets = None
            sketch._runs = (base, payload)
        sketch.zero_count = int(record["zero_count"])
        sketch.count = int(record["count"])
        sketch.sum_value = float(record["sum_value"])
        if sketch.count:
            sketch.min_value = float(record["min_value"])
            sketch.max_value = float(record["max_value"])
        return sketch

    def __repr__(self):
        runs = self._runs
        size = len(self._buckets) if runs is None else _run_count(runs[1])
        return "<QuantileSketch n={} buckets={} alpha={}>".format(
            self.count, size, self.alpha
        )


def _run_count(payload):
    """Buckets in a run string (one ``gap:count`` entry each)."""
    return payload.count(",") + 1 if payload else 0


class SketchStore:
    """The GPA's windowed sketch series, merged on demand.

    Each ingested ``SKETCH_FORMAT`` record is one eviction window from
    one node; the store keeps a bounded history per ``(node,
    request_class, metric)`` keyed by the window-end time on the
    reference clock, which the ingesting tier supplies, so SLO rules can
    merge "the last N seconds" across nodes regardless of local clock
    skew.
    """

    def __init__(self, history=256):
        self.history = history
        self.series = {}  # (node, request_class, metric) -> deque[(end_ref, sketch)]
        self.rows_ingested = 0

    def ingest(self, record, end):
        """Store one decoded sketch record (a dict of SKETCH_FORMAT fields)
        whose window ended at reference time ``end``, and return the
        sketch it stored, which callers must not change.  A row
        :meth:`QuantileSketch.from_row` refuses raises its
        ``ValueError`` and stores nothing."""
        sketch = QuantileSketch.from_row(record)
        key = (record["node"], record["request_class"], record["metric"])
        windows = self.series.get(key)
        if windows is None:
            windows = self.series[key] = deque(maxlen=self.history)
        windows.append((end, sketch))
        self.rows_ingested += 1
        return sketch

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

    def nodes(self):
        """Nodes with at least one stored latency window."""
        return sorted({key[0] for key in self.series if key[2] == "latency"})

    def merged(self, request_class=None, metric="latency", node=None,
               since=None):
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
            merged = QuantileSketch()
        return merged

    def latest_window_end(self):
        """Most recent corrected window-end seen (None when empty)."""
        latest = None
        for windows in self.series.values():
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

"""Small online statistics helpers used across the simulator and toolkit."""

import math


class RunningStat:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value):
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self):
        return self._mean if self.count else 0.0

    @property
    def variance(self):
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self):
        return math.sqrt(self.variance)

    def merge(self, other):
        """Fold another :class:`RunningStat` into this one (Chan's method)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return self
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean += delta * other.count / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def as_dict(self):
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }

    def __repr__(self):
        return "<RunningStat n={} mean={:.6g}>".format(self.count, self.mean)


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal (e.g. queue length)."""

    __slots__ = ("_last_time", "_last_value", "_area", "_span_start", "maximum")

    def __init__(self, start_time=0.0, initial=0.0):
        self._last_time = start_time
        self._span_start = start_time
        self._last_value = initial
        self._area = 0.0
        self.maximum = initial

    def update(self, now, value):
        """Record that the signal changed to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError("time went backwards in TimeWeightedStat")
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = value
        if value > self.maximum:
            self.maximum = value

    def mean(self, now):
        """Time-weighted mean over [start, now]."""
        span = now - self._span_start
        if span <= 0:
            return self._last_value
        area = self._area + self._last_value * (now - self._last_time)
        return area / span

    @property
    def current(self):
        return self._last_value


class Histogram:
    """Fixed-bin histogram with overflow bin; bins are [edge[i], edge[i+1])."""

    def __init__(self, edges):
        edges = sorted(edges)
        if len(edges) < 2:
            raise ValueError("histogram needs at least two edges")
        self.edges = edges
        self.counts = [0] * (len(edges) - 1)
        self.underflow = 0
        self.overflow = 0

    def add(self, value):
        if value < self.edges[0]:
            self.underflow += 1
            return
        if value >= self.edges[-1]:
            self.overflow += 1
            return
        low, high = 0, len(self.edges) - 1
        while high - low > 1:
            mid = (low + high) // 2
            if value >= self.edges[mid]:
                low = mid
            else:
                high = mid
        self.counts[low] += 1

    @property
    def total(self):
        return sum(self.counts) + self.underflow + self.overflow

    def quantile(self, q):
        """Approximate quantile from bin midpoints (0 <= q <= 1)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        total = self.total
        if total == 0:
            return 0.0
        target = q * total
        seen = self.underflow
        if seen >= target and self.underflow:
            return self.edges[0]
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                return 0.5 * (self.edges[i] + self.edges[i + 1])
        return self.edges[-1]


def mean(values):
    """Arithmetic mean; 0.0 for no values."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def mean_field(records, key):
    """Mean of ``record[key]`` over dict records."""
    return mean(record[key] for record in records)


def percentile(values, q):
    """Exact percentile of a sequence by linear interpolation (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac

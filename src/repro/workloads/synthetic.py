"""Synthetic telemetry load for many-node federation runs.

Driving a 256–1000 node cluster with real RPC workloads would spend
most of the simulation budget on the workload itself; the federation
benchmark only needs each monitored node to *emit* realistic telemetry
volume.  These LPAs skip Kprof entirely: on every daemon eviction tick
they synthesize one window of per-class quantile-sketch rows and class
summaries from the node's seeded RNG substream, then flow through the
real buffer → daemon → frame → channel pipeline, so encode costs,
daemon CPU, and wire bytes stay faithful while the request path is
elided.

Determinism: each node draws from its own named substream
(``synthetic.<node>``), so adding or removing other nodes never shifts
a node's sample sequence.
"""

import math
from random import NV_MAGICCONST

from repro.core.lpa import (
    CLASS_SUMMARY_FORMAT,
    SKETCH_FORMAT,
    LocalPerformanceAnalyzer,
)
from repro.observability.sketches import QuantileSketch


def lognormal_samples(stream, mu, sigma, n):
    """``n`` draws of ``stream.lognormvariate(mu, sigma)`` in one loop.

    The body is the standard library's Kinderman–Monahan
    ratio-of-uniforms method on ``stream.random``, with the same
    arithmetic in the same order, so it returns the values ``n`` calls
    would and leaves ``stream`` in the same state, at a fraction of
    the per-call cost.
    """
    random = stream.random
    log = math.log
    exp = math.exp
    samples = []
    append = samples.append
    for _ in range(n):
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        append(exp(mu + z * sigma))
    return samples


class SyntheticSketchLPA(LocalPerformanceAnalyzer):
    """Emits one ``sysprof.sketch`` latency row per request class per
    eviction window, populated from seeded lognormal draws."""

    record_format = SKETCH_FORMAT

    def __init__(self, kernel, kprof, rng, request_classes=("rpc",),
                 samples_per_window=32, median_latency=0.002, sigma=0.5,
                 load_factor=1.0, alpha=0.01, max_buckets=256,
                 name="synthetic-sketch", buffer_capacity=64,
                 on_buffer_full=None):
        super().__init__(
            kernel, kprof, name,
            buffer_capacity=buffer_capacity, on_buffer_full=on_buffer_full,
        )
        self.rng = rng
        self.request_classes = tuple(request_classes)
        self.samples_per_window = samples_per_window
        self.mu = math.log(median_latency * load_factor)
        self.sigma = sigma
        self.alpha = alpha
        self.max_buckets = max_buckets
        self.rows_emitted = 0
        self._window_start = kernel.sim.now

    def _subscribe(self):
        """Synthetic: no Kprof events."""

    def sample(self):
        """Daemon timer hook: synthesize this window's latency sketches."""
        now = self.kernel.clock.local_time(self.kernel.sim.now)
        for request_class in self.request_classes:
            sketch = QuantileSketch(alpha=self.alpha, max_buckets=self.max_buckets)
            sketch.extend(lognormal_samples(
                self.rng, self.mu, self.sigma, self.samples_per_window
            ))
            self.buffer.append(
                sketch.to_row(
                    self.kernel.name, request_class, "latency",
                    self._window_start, now,
                )
            )
            self.rows_emitted += 1
        self._window_start = now


class SyntheticClassLPA(LocalPerformanceAnalyzer):
    """Emits one ``sysprof.class_summary`` row per request class per
    eviction window with internally consistent residency components
    (kernel_time ≥ kernel_wait; latency ≥ kernel + user), so federated
    blame reconstruction from summaries stays meaningful.

    ``load_factor`` scales the node's mean latency — mark one node hot
    to give blame descent an unambiguous culprit.
    """

    record_format = CLASS_SUMMARY_FORMAT

    def __init__(self, kernel, kprof, rng, request_classes=("rpc",),
                 count_per_window=32, mean_latency=0.002, load_factor=1.0,
                 bytes_per_request=1024, name="synthetic-class",
                 buffer_capacity=64, on_buffer_full=None):
        super().__init__(
            kernel, kprof, name,
            buffer_capacity=buffer_capacity, on_buffer_full=on_buffer_full,
        )
        self.rng = rng
        self.request_classes = tuple(request_classes)
        self.count_per_window = count_per_window
        self.mean_latency = mean_latency * load_factor
        self.bytes_per_request = bytes_per_request
        self.rows_emitted = 0
        self._window_start = kernel.sim.now

    def _subscribe(self):
        """Synthetic: no Kprof events."""

    def sample(self):
        """Daemon timer hook: synthesize this window's class summaries."""
        now = self.kernel.clock.local_time(self.kernel.sim.now)
        for request_class in self.request_classes:
            # ±20% seeded jitter around the configured mean; residency
            # split 60% kernel (half of it wait) / 25% user / 15% other.
            latency = self.mean_latency * (0.8 + 0.4 * self.rng.random())
            kernel_time = 0.6 * latency
            kernel_wait = 0.5 * kernel_time
            user_time = 0.25 * latency
            count = self.count_per_window
            self.buffer.append((
                self.kernel.name, request_class, self._window_start, now,
                count, latency, kernel_time, user_time, kernel_wait,
                count * self.bytes_per_request,
            ))
            self.rows_emitted += 1
        self._window_start = now


def install_synthetic_load(sysprof, request_classes=("rpc",),
                           samples_per_window=32, count_per_window=32,
                           mean_latency=0.002, hot_nodes=None,
                           hot_factor=4.0, sketches=True, summaries=True):
    """Attach synthetic LPAs to every monitored node of ``sysprof``.

    Returns ``{node: [lpas]}``.  ``hot_nodes`` get their latencies
    scaled by ``hot_factor`` so diagnosis has a real offender to find.
    Call after :meth:`SysProf.install` and before :meth:`SysProf.start`;
    the daemon's eviction timer drives emission, no start needed here.
    """
    hot = set(hot_nodes or ())
    streams = sysprof.cluster.streams
    installed = {}
    for node_name, monitor in sysprof.monitors.items():
        rng = streams.stream("synthetic.{}".format(node_name))
        factor = hot_factor if node_name in hot else 1.0
        lpas = []
        if sketches:
            lpa = SyntheticSketchLPA(
                monitor.kernel, monitor.kprof, rng,
                request_classes=request_classes,
                samples_per_window=samples_per_window,
                median_latency=mean_latency, load_factor=factor,
            )
            monitor.daemon.add_lpa(lpa)
            lpas.append(lpa)
        if summaries:
            lpa = SyntheticClassLPA(
                monitor.kernel, monitor.kprof, rng,
                request_classes=request_classes,
                count_per_window=count_per_window,
                mean_latency=mean_latency, load_factor=factor,
            )
            monitor.daemon.add_lpa(lpa)
            lpas.append(lpa)
        installed[node_name] = lpas
    return installed

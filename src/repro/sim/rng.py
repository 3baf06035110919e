"""Seeded, named random streams.

Every stochastic component draws from its own named substream so that
adding a new consumer of randomness does not perturb the draws seen by
existing components — a prerequisite for comparing monitor-on vs
monitor-off runs of the *same* workload.
"""

import math
import random

# The interpreter's builtin sha256, as ``random`` takes its sha512:
# ``hashlib`` would load OpenSSL's libcrypto (about 3.5 MB resident)
# into every simulation process for one digest per stream.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11 and earlier
    except ImportError:
        from hashlib import sha256


class RandomStreams:
    """Factory of independent ``random.Random`` substreams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("service")
    >>> a is streams.stream("arrivals")
    True
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = {}

    def stream(self, name):
        """The substream for ``name`` (created on first use)."""
        stream = self._streams.get(name)
        if stream is None:
            digest = sha256("{}/{}".format(self.seed, name).encode("utf-8")).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def fork(self, name):
        """A child :class:`RandomStreams` rooted at ``name``."""
        digest = sha256("{}//{}".format(self.seed, name).encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))


def exponential(stream, mean):
    """Exponential variate with the given mean (mean > 0)."""
    if mean <= 0:
        raise ValueError("exponential mean must be positive")
    return stream.expovariate(1.0 / mean)


def poisson(stream, mean):
    """Poisson variate (Knuth for small means, normal approx for large)."""
    if mean < 0:
        raise ValueError("poisson mean must be non-negative")
    if mean == 0:
        return 0
    if mean > 50:
        value = int(round(stream.gauss(mean, math.sqrt(mean))))
        return max(0, value)
    threshold = math.exp(-mean)
    k, product = 0, stream.random()
    while product > threshold:
        k += 1
        product *= stream.random()
    return k


def pareto(stream, shape, minimum):
    """Bounded-below Pareto variate (heavy-tailed service times)."""
    if shape <= 0 or minimum <= 0:
        raise ValueError("pareto shape and minimum must be positive")
    return minimum * (1.0 - stream.random()) ** (-1.0 / shape)

"""The synthetic telemetry LPAs' batch lognormal draws."""

import random

from repro.workloads.synthetic import lognormal_samples


def test_lognormal_samples_equal_lognormvariate_calls():
    """Same values, bit for bit, and the same stream state after, as the
    ``lognormvariate`` calls of the interpreter under test."""
    for seed in range(20):
        for mu, sigma in ((0.0, 1.0), (-6.2, 0.5), (3.0, 2.5)):
            calls = random.Random(seed)
            batch = random.Random(seed)
            expected = [calls.lognormvariate(mu, sigma) for _ in range(300)]
            got = lognormal_samples(batch, mu, sigma, 300)
            assert [value.hex() for value in got] == [
                value.hex() for value in expected
            ]
            assert batch.getstate() == calls.getstate()


def test_lognormal_samples_of_none_draw_nothing():
    stream = random.Random(3)
    state = stream.getstate()
    assert lognormal_samples(stream, 0.0, 1.0, 0) == []
    assert stream.getstate() == state

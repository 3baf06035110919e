"""The usage examples in ``src/`` docstrings run and pass.

Each listed module must hold at least one example, so a module that
loses its examples fails here instead of silently testing nothing.
"""

import doctest
import importlib

import pytest

MODULES = ("repro.sim.engine", "repro.sim.rng", "repro.cluster.node")


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_pass(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.attempted >= 1
    assert results.failed == 0

"""Deterministic discrete-event simulation engine (SimPy-like,
dependency-free): an event calendar with stable tie-breaking,
generator-based processes, and seeded named RNG substreams.  Every
layer above — the OS, the network, and SysProf itself (§2) —
schedules through this engine, which is what makes same-seed runs
byte-identical and the paper's overhead results reproducible."""

from repro.sim.engine import AllOf, AnyOf, Simulator, Timeout, Waitable
from repro.sim.errors import Interrupt, ProcessCrashed, SimError, StaleWaitable
from repro.sim.process import Process
from repro.sim.resources import Gate, Resource, Store
from repro.sim.rng import RandomStreams, exponential, pareto, poisson
from repro.sim.stats import Histogram, RunningStat, TimeWeightedStat, percentile

__all__ = [
    "AllOf",
    "AnyOf",
    "Gate",
    "Histogram",
    "Interrupt",
    "Process",
    "ProcessCrashed",
    "RandomStreams",
    "Resource",
    "RunningStat",
    "SimError",
    "Simulator",
    "StaleWaitable",
    "Store",
    "TimeWeightedStat",
    "Timeout",
    "Waitable",
    "exponential",
    "pareto",
    "percentile",
    "poisson",
]

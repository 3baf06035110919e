"""Benchmark helpers: paper-vs-measured reporting.

Every benchmark regenerates one table or figure from the paper's
evaluation (§3) and prints the series it produces next to the paper's
anchor numbers.  Absolute values come from a simulator, not the authors'
2006 testbed — the assertions check the *shape* claims (who wins, what
grows, rough factors), per DESIGN.md.

Run:  pytest benchmarks/ --benchmark-only

Setting ``BENCH_SMOKE=1`` runs the throughput benchmarks in *smoke
mode* — small iteration counts, relaxed speedup floors, and no
``BENCH_*.json`` rewrite — so CI can exercise the benchmark code paths
without the noise-sensitive perf assertions on shared runners.  Full
runs append to their ``BENCH_*.json`` trajectory through
:func:`repro.experiments.common.record_trajectory`, the writer the CLI
uses too.
"""

import os

import pytest

#: Smoke mode: scaled-down runs for CI (see module docstring).
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def report(title, headers, rows, notes=()):
    """Print one paper-vs-measured block (shown with pytest -s / summary)."""
    from repro.experiments.common import format_table

    print()
    print("=" * 72)
    print(format_table(headers, rows, title=title))
    for note in notes:
        print("  note: {}".format(note))
    print("=" * 72)


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments are long)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run

"""Resource-geometry calibration: the simulator agrees with itself.

Acceptance bench for the self-calibration suite: every modeled
resource's sweep must produce a detectable knee, and at least four of
the six inferred geometry values must match the configured constants in
``ossim/costs.py`` / ``SysProfConfig`` within each resource's stated
tolerance (all six pass at the time of writing; the floor leaves room
for honest drift in the two CPU-bound sweeps without going red on
noise-free refactors).

Results append to the ``trajectory`` list in ``BENCH_calibration.json``
at the repo root; ``tools/gen_docs.py`` renders the latest entry into
``docs/calibration.md``.
"""

from pathlib import Path

from repro.experiments.calibrate import BENCH_SCHEMA, run_calibration
from repro.experiments.common import record_trajectory

from benchmarks.conftest import SMOKE, report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_calibration.json"

#: Minimum resources whose inferred geometry must match the configured
#: value within tolerance.
PASS_FLOOR = 4

#: These sweeps are analytic (flow-control byte counting, raw
#: serialization) — they must recover the configured value almost
#: exactly, not just within the documented tolerance.
EXACT_RESOURCES = {"socket_buffer": 0.01, "link_serialization": 0.01}


def test_calibration_recovers_modeled_geometry():
    result = run_calibration(smoke=SMOKE)

    rows = []
    for r in result.resources:
        rows.append((
            r.name,
            "-" if r.inferred is None else "{:.4g}".format(r.inferred),
            "{:.4g}".format(r.configured),
            "-" if r.rel_error is None else "{:.1%}".format(r.rel_error),
            "{:.0%}".format(r.tolerance),
            "ok" if r.passed else "FAIL",
        ))
    report(
        "resource geometry: knee-inferred vs configured",
        ("resource", "inferred", "configured", "error", "tolerance", "status"),
        rows,
        notes=(
            "each value is inferred from the knee of an offered-load sweep, "
            "never read from the config",
            "digest {} (serial == --jobs N)".format(result.digest[:16]),
        ),
    )

    assert result.total == 6
    for r in result.resources:
        assert r.knee is not None, "no knee found for {}".format(r.name)
    assert result.passes >= PASS_FLOOR, (
        "only {}/{} resources within tolerance".format(
            result.passes, result.total
        )
    )
    for name, ceiling in EXACT_RESOURCES.items():
        r = result.resource(name)
        assert r.rel_error <= ceiling, (name, r.rel_error)

    if not SMOKE:
        record_trajectory(BENCH_PATH, BENCH_SCHEMA, result.payload())

"""Shared experiment plumbing."""

import hashlib
import json
import os
import pathlib
import subprocess
import time
from dataclasses import dataclass, field

from repro.sim.stats import mean, mean_field  # noqa: F401  (re-exported)


def trace_digest(records):
    """A stable content hash of a GPA record trace.

    Records are JSON-serialized with sorted keys (floats keep full
    ``repr`` precision), so two traces hash equal iff they are
    byte-identical — the currency of the determinism tests, which compare
    same-seed runs, serial vs ``--jobs N`` runs, and stored digests.

    ``interaction_id`` comes from a process-global counter (unique across
    every cluster in the process), so repeated runs shift it by a
    constant while the trace is otherwise identical.  It is rebased to
    the trace's minimum id before hashing — the same normalization the
    determinism tests have always applied.
    """
    records = list(records)
    ids = [
        record["interaction_id"]
        for record in records
        if isinstance(record, dict) and "interaction_id" in record
    ]
    if ids:
        base = min(ids)
        records = [
            {
                key: (value - base if key == "interaction_id" else value)
                for key, value in record.items()
            }
            if isinstance(record, dict) and "interaction_id" in record
            else record
            for record in records
        ]
    payload = json.dumps(records, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Series:
    """A named series of (x, y) points for one figure."""

    name: str
    points: list = field(default_factory=list)

    def add(self, x, y):
        self.points.append((x, y))

    @property
    def xs(self):
        return [x for x, _ in self.points]

    @property
    def ys(self):
        return [y for _, y in self.points]


def format_table(headers, rows, title=None):
    """Render an aligned ASCII table."""
    columns = [
        [str(header)] + [_fmt(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(h).ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row[i]).ljust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)


def git_commit():
    """Short git SHA of the working tree, or ``"unknown"`` outside a repo.

    Stamped into every ``BENCH_*.json`` trajectory entry (and from there
    into the provenance footers of the generated docs) so a table can be
    traced back to the run that produced it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def record_trajectory(path, schema, payload):
    """Append one run to a ``BENCH_*.json`` trajectory.

    Same layout as the benchmark harness's ``record_run`` (src/ cannot
    import benchmarks/): an oldest-first ``trajectory`` list with the
    newest entry mirrored under ``latest``, each entry commit- and
    date-stamped.  Shared by every CLI BENCH writer — federation,
    microbench, calibrate.  Corrupt files are survivable (the history
    restarts rather than crashing the run).
    """
    path = pathlib.Path(path)
    doc = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    trajectory = doc.get("trajectory")
    if not isinstance(trajectory, list):
        trajectory = []
    entry = dict(payload)
    entry["commit"] = git_commit()
    entry["date"] = time.strftime("%Y-%m-%d")
    trajectory.append(entry)
    path.write_text(json.dumps({
        "schema": schema,
        "latest": entry,
        "trajectory": trajectory,
    }, indent=2) + "\n")
    return entry


def _fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 100:
            return "{:.0f}".format(value)
        if magnitude >= 1:
            return "{:.2f}".format(value)
        return "{:.4f}".format(value)
    return str(value)

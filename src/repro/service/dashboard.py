"""The streaming dashboard: the engine's text dashboard grown live.

:func:`render` composes one refresh frame from a running supervisor —
the diagnosis engine's percentile/alert/CPU view, anomaly flags, node
health, and a sparkline history column per watched metric (drawn with
:func:`repro.analysis.plot.sparkline`, the same renderer the generated
calibration docs use).  :func:`stream` pumps the supervisor and redraws
at a fixed simulated-time cadence — the interactive body of
``python -m repro serve``.

Everything here is host-side read-only: rendering a frame never touches
the simulator, so a streaming run stays byte-identical to a batch run.
"""

from repro.analysis.plot import sparkline

#: Recorder series shown as sparklines by default (fnmatch patterns,
#: matched in order; first ``max_series`` wins).
DEFAULT_SPARKS = (
    "sysprof.node.*.cpu_busy",
    "sysprof.gpa.*.records_received",
    "sysprof.diagnosis.active_alerts",
    "sysprof.daemon.*.send_errors",
)


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return "{:.4g}".format(value)
    return str(value)


def render(supervisor, width=60, spark_patterns=DEFAULT_SPARKS,
           max_series=12):
    """One dashboard frame as a newline-joined string."""
    now = supervisor.now
    lines = [
        "== repro serve :: {} @ t={:.2f}s  slice={:g}s  "
        "slices={}  controls={} ==".format(
            supervisor.scenario.name, now, supervisor.slice_width,
            supervisor.slices, supervisor.controls_applied,
        ),
        "",
        supervisor.engine.dashboard(now),
    ]
    # -- anomaly flags --------------------------------------------------
    anomaly = supervisor.anomaly
    if anomaly is not None:
        lines.append("")
        if anomaly.active:
            lines.append("anomaly flags:")
            for name in sorted(anomaly.active):
                lines.append(
                    "  !! {} (z={})".format(name, _fmt(anomaly.active[name]))
                )
        else:
            lines.append(
                "anomaly flags: none ({} detectors, {} checks)".format(
                    len(anomaly.detectors), anomaly.checks
                )
            )
    # -- node health ----------------------------------------------------
    lines.append("")
    lines.append("node health:")
    stale_threshold = supervisor.sysprof.gpa.stale_threshold
    for node in sorted(supervisor.sysprof.monitors):
        staleness = supervisor.sysprof.tier_of(node).staleness(node, now)
        if staleness is None:
            state = "no data"
        elif staleness > stale_threshold:
            state = "STALE {:.2f}s".format(staleness)
        else:
            state = "ok ({:.2f}s)".format(staleness)
        drilled = node in supervisor.sysprof.controller.drilled_nodes()
        lines.append("  {:<12} {}{}".format(
            node, state, "  [drilled]" if drilled else ""
        ))
    # -- sparkline history ----------------------------------------------
    recorder = supervisor.recorder
    shown = []
    for pattern in spark_patterns:
        for name in recorder.names(pattern):
            if name not in shown:
                shown.append(name)
            if len(shown) >= max_series:
                break
        if len(shown) >= max_series:
            break
    if shown:
        lines.append("")
        lines.append("history (last {} samples):".format(width))
        label_width = max(len(name) for name in shown)
        for name in shown:
            values = recorder.values(name)
            lines.append("  {:<{}} |{}| {}".format(
                name, label_width,
                sparkline(values, width=width), _fmt(values[-1] if values else None),
            ))
    return "\n".join(lines)


def stream(supervisor, refresh=1.0, duration=None, out=None, clear=True,
           width=60):
    """Pump ``supervisor`` forever (or for ``duration`` simulated
    seconds), redrawing one frame per ``refresh`` simulated seconds.

    ``out`` is a ``print``-compatible callable (defaults to ``print``);
    ``clear`` emits an ANSI home+clear before each frame so the terminal
    behaves like ``watch``.  Returns the number of frames drawn.
    Stops early when the supervisor is shut down mid-stream (e.g. by a
    socket client's ``shutdown`` op draining at a slice boundary).
    """
    if out is None:
        out = print
    frames = 0
    end = None if duration is None else supervisor.now + duration
    while not supervisor.stopping and (end is None or supervisor.now < end):
        target = supervisor.now + refresh
        if end is not None:
            target = min(target, end)
        while supervisor.now < target and not supervisor.stopping:
            supervisor.pump(
                width=min(supervisor.slice_width, target - supervisor.now)
            )
        frame = render(supervisor, width=width)
        out(("\x1b[H\x1b[2J" + frame) if clear else frame)
        frames += 1
    return frames

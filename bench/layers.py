"""Charge cProfile self time to the ``src/repro/<layer>/`` package it was
spent in.

A Python function defined under ``repro/<layer>/`` is charged to that
layer; one in a top-level module (``repro/cli.py``) to ``repro``.
Everything else -- builtins, C methods, the standard library -- has no
layer of its own and is charged to whoever called it: its self time is
split over its callers in proportion to the per-caller self time pstats
records, and a caller without a layer is resolved the same way, up the
call graph.  Time that reaches a function with no recorded caller (the
benchmark's own loop, the profiler's entry frame) is charged to
:data:`HOST`.  A cycle among layerless functions is cut where it closes.
"""

import importlib

#: Bucket for time spent outside ``repro`` that no ``repro`` code caused.
HOST = "host"


def layer_of(filename):
    """The ``repro`` package a source file belongs to, or None."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0:
        return None
    head = path[at + len("/repro/"):].split("/", 1)[0]
    return "repro" if head.endswith(".py") else head


def layer_self_times(stats):
    """``{layer: self seconds}`` from a ``pstats.Stats(...).stats`` dict.

    Each entry of ``stats`` maps ``(filename, line, name)`` to
    ``(primitive calls, calls, self s, cumulative s, callers)``, where
    ``callers`` maps a caller's key to that caller's
    ``(primitive calls, calls, self s, cumulative s)`` share.
    """
    memo = {}

    def split(func, active):
        """Fractions of ``func``'s self time per layer; empty when every
        caller leads back into ``active``, the layerless functions
        already on the path being resolved."""
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = stats[func][4]
        cut = any(caller in active for caller in callers)
        live = [
            (caller, row) for caller, row in callers.items()
            if caller in stats and caller not in active
        ]
        by_time = sum(row[2] for _caller, row in live) > 0.0
        inner = active | {func}
        shares, resolved = {}, 0.0
        for caller, row in live:
            weight = row[2] if by_time else row[1]
            sub = split(caller, inner)
            if weight <= 0 or not sub:
                continue
            resolved += weight
            for name, fraction in sub.items():
                shares[name] = shares.get(name, 0.0) + weight * fraction
        if resolved > 0.0:
            shares = {name: value / resolved for name, value in shares.items()}
        elif not cut:  # nothing recorded calling it: a root
            shares = {HOST: 1.0}
        if not cut:  # the answer does not depend on the path taken here
            memo[func] = shares
        return shares

    out = {}
    for func, row in stats.items():
        self_s = row[2]
        if self_s <= 0.0:
            continue
        for name, fraction in (split(func, frozenset()) or {HOST: 1.0}).items():
            out[name] = out.get(name, 0.0) + self_s * fraction
    return out


def call_counts(stats, targets):
    """Total calls per name in ``targets``.

    ``targets`` maps a metric name to ``"module:Class.method"`` strings;
    each is resolved to its code object, whose ``(filename, first line,
    name)`` is the key cProfile records it under.
    """
    out = {}
    for name, functions in targets.items():
        total = 0
        for spec in functions:
            module, _, path = spec.partition(":")
            obj = importlib.import_module(module)
            for attr in path.split("."):
                obj = getattr(obj, attr)
            code = obj.__code__
            row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            total += row[1] if row else 0
        out[name] = total
    return out

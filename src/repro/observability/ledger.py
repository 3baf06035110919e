"""Per-category attribution of simulated CPU time.

Every charge retiring on a simulated CPU (:class:`repro.ossim.cpu.Cpu`)
is tagged with one of the :data:`CATEGORIES` below, so the paper's
overhead claims — "monitoring perturbation is the CPU the probes,
analyzers, and the dissemination daemon steal from the workload" —
become queryable numbers per node instead of deltas between two runs.

Attribution resolution, in precedence order:

1. ``task.category`` — sticky task identity.  SysProf's own tasks (the
   dissemination daemon, the GPA) carry it, so *all* their CPU time —
   including syscall and network-stack work done on their behalf —
   counts toward monitoring.
2. Call-site attribution passed to ``Cpu.submit(..., attribution=...)``:
   either a single category string, or a composite ``(category, base,
   probe, analyzer)`` whose seconds sum to the submitted amount (e.g.
   syscall entry = kernel fixed cost + probe + subscribed analyzer
   callbacks).  Only the *base* is overridden by ``task.category`` —
   probe/analyzer portions are monitoring cost no matter who pays them.
3. The default: ``workload``.

Purity contract: the ledger is host-side bookkeeping.  Charging it
consumes no simulated CPU, schedules no events, and reads no random
streams; installing it cannot change a same-seed trace hash.  The
per-node category sums equal ``kernel.cpu.busy_time`` to a relative
1e-9, not bit for bit: the retire step hands the ledger the seconds it
added to ``busy_time``, split into pieces whose rounding remainder goes
to the last nonzero piece, but the ledger adds each piece to its own
category, in another order than ``busy_time``'s single sum.

Installation is process-global so experiments need no config plumbing::

    from repro.observability import ledger
    led = ledger.install()
    ...  # build clusters, run workloads
    led.breakdown("proxy")   # {"workload": ..., "probe": ..., ...}
    ledger.uninstall()

Kernels read :func:`active` once at construction, so install *before*
building the cluster.
"""

CATEGORIES = (
    "workload",
    "probe",
    "analyzer",
    "dissemination",
    "syscall",
    "netstack",
    "blockio",
    "idle",
)

#: The categories that are SysProf's own cost (the paper's "overhead").
MONITORING_CATEGORIES = ("probe", "analyzer", "dissemination")

_active = None


def install(ledger=None):
    """Make ``ledger`` (default: a fresh :class:`CpuLedger`) the process
    ledger.  Kernels built afterwards attach to it.  Returns it."""
    global _active
    if ledger is None:
        ledger = CpuLedger()
    _active = ledger
    return ledger


def uninstall():
    """Stop attributing; kernels built afterwards carry no ledger."""
    global _active
    _active = None


def active():
    """The installed :class:`CpuLedger`, or ``None``."""
    return _active


class CpuLedger:
    """Accumulates ``(node, category) -> simulated CPU seconds``."""

    def __init__(self):
        self._nodes = {}  # node name -> {category: seconds}
        self._kernels = {}  # node name -> Kernel (for idle/busy context)

    # -- write side (called from the CPU retire step) -------------------

    def attach_kernel(self, kernel):
        """Register a kernel so breakdowns can report idle time."""
        self._kernels[kernel.name] = kernel
        self._nodes.setdefault(kernel.name, {})

    def charge(self, node, category, seconds):
        """Attribute ``seconds`` of simulated CPU on ``node``."""
        categories = self.account(node)
        categories[category] = categories.get(category, 0.0) + seconds

    def account(self, node):
        """The live ``{category: seconds}`` dict of ``node``.  The CPU
        retire step adds to it directly, as :meth:`charge` would."""
        categories = self._nodes.get(node)
        if categories is None:
            categories = self._nodes[node] = {}
        return categories

    # -- read side ------------------------------------------------------

    def nodes(self):
        return sorted(self._nodes)

    def breakdown(self, node=None, include_idle=True):
        """Per-category seconds: one dict for ``node``, or ``{node: dict}``
        for all nodes.  ``idle`` is derived at query time from the
        attached kernel (``now * cores - busy``), never accumulated."""
        if node is not None:
            return self._one(node, include_idle)
        return {name: self._one(name, include_idle) for name in sorted(self._nodes)}

    def _one(self, node, include_idle):
        out = {category: 0.0 for category in CATEGORIES if category != "idle"}
        out.update(self._nodes.get(node, {}))
        kernel = self._kernels.get(node)
        if include_idle and kernel is not None:
            span = kernel.sim.now * kernel.cpu_count
            out["idle"] = max(0.0, span - kernel.cpu.busy_time)
        return out

    def busy_total(self, node):
        """Sum of all non-idle charges (``cpu.busy_time`` to a relative
        1e-9)."""
        return sum(self._nodes.get(node, {}).values())

    def monitoring_time(self, node):
        """Seconds charged to SysProf's own categories on ``node``."""
        categories = self._nodes.get(node, {})
        return sum(categories.get(c, 0.0) for c in MONITORING_CATEGORIES)

    def monitoring_share(self, node):
        """Monitoring seconds as a fraction of the node's busy time."""
        busy = self.busy_total(node)
        return self.monitoring_time(node) / busy if busy > 0.0 else 0.0

    def table(self, nodes=None):
        """Rows ``(node, category..., busy, monitoring %)`` for CLI output."""
        names = list(nodes) if nodes is not None else self.nodes()
        rows = []
        for name in names:
            breakdown = self._one(name, include_idle=False)
            busy = self.busy_total(name)
            row = [name]
            row.extend(breakdown.get(c, 0.0) * 1e3 for c in CATEGORIES if c != "idle")
            row.append(busy * 1e3)
            row.append(100.0 * self.monitoring_share(name))
            rows.append(tuple(row))
        return rows

    def __repr__(self):
        return "<CpuLedger {} nodes>".format(len(self._nodes))

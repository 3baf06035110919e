"""Preemptive priority CPU with quantum round-robin and context-switch cost.

The CPU serves three bands (see :mod:`repro.ossim.task`):

* ``BAND_IRQ`` — interrupt work; runs to completion, preempts lower bands
  immediately (this is the "system-level asynchrony" the paper names as
  the reason middleware cannot account for kernel resource usage);
* ``BAND_KERNEL`` — kernel daemons;
* ``BAND_USER`` — user tasks, time-sliced round-robin.

Work is submitted as ``(task, seconds, mode)`` items; the returned
waitable triggers with a ``(start, end)`` tuple when the cumulative grant
reaches the requested amount, letting callers backfill precise per-layer
event timestamps for contiguous segments.

A core is a callback state machine, not a simulation process: a slice
is one timer on the engine, and the slice is accounted in the timer's
own event.  Besides that timer a core allocates an engine event for
its start hop, for a wake of a parked core and for a preempt, because
same-time events run in ``seq`` order and those hops decide who runs
first in a tied instant; ``docs/performance.md`` has the table.
"""

from collections import deque

from repro.sim.engine import Waitable
from repro.ossim.task import BAND_IRQ, TASK_READY, TASK_RUNNING
from repro.ossim import tracepoints as tp

_EPSILON = 1e-12

_SWITCH = (tp.SCHED_SWITCH,)


class WorkItem:
    __slots__ = (
        "task", "remaining", "total", "mode", "band", "done",
        "started_at", "attribution",
    )

    def __init__(self, task, amount, mode, band, done, attribution):
        self.task = task
        self.remaining = amount
        self.total = amount
        self.mode = mode
        self.band = band
        self.done = done
        self.started_at = None
        # Ledger category tag: None (default by task/mode), a category
        # string, or a composite (category, base, probe, analyzer) whose
        # seconds sum to amount.
        self.attribution = attribution


class Cpu:
    """A single core; the paper's testbed nodes were uniprocessors.

    ``_running`` is the item holding the core (None while idle).  Every
    scheduled hop carries the ``_epoch`` it was scheduled in; the epoch
    moves on whenever the core starts a slice, parks, or is preempted,
    so a hop from an earlier epoch (the timer of a preempted slice, a
    wake overtaken by a preempt) is stale and does nothing.
    ``_parked`` marks an idle core that a submit must wake.
    """

    __slots__ = (
        "sim", "kernel", "costs", "index", "_queues", "_running",
        "_last_task", "busy_time", "mode_time", "ctx_switch_count",
        "cpu_set", "_parked", "_epoch", "_start", "_overhead", "_slice",
        "_switch_split",
    )

    def __init__(self, sim, kernel, costs, index=0):
        self.sim = sim
        self.kernel = kernel
        self.costs = costs
        self.index = index
        self._queues = (deque(), deque(), deque())
        self._running = None
        self._last_task = None
        self.busy_time = 0.0
        self.mode_time = {"user": 0.0, "kernel": 0.0, "ctx": 0.0}
        self.ctx_switch_count = 0
        self.cpu_set = None  # populated when this core belongs to a CpuSet
        self._parked = False
        self._epoch = 0
        # The current slice: when it started, its context-switch
        # overhead, and the CPU seconds it grants.
        self._start = 0.0
        self._overhead = 0.0
        self._slice = 0.0
        # The (probe, analyzer) part of the last context switch's
        # overhead, from the same site answer that costed it.
        self._switch_split = (0.0, 0.0)
        sim._soon1(self._wake, 0)  # start hop

    # ------------------------------------------------------------------

    def submit(self, task, amount, mode="user", band=None, attribution=None):
        """Request ``amount`` seconds of CPU; returns a waitable -> (start, end).

        ``attribution`` tags the charge for the observability ledger
        (see :class:`WorkItem`); it is pure bookkeeping and never
        affects scheduling.
        """
        if amount < 0:
            raise ValueError("negative CPU demand: {}".format(amount))
        if band is None:
            band = task.band if task is not None else BAND_IRQ
        done = Waitable(self.sim)
        if amount <= _EPSILON:
            done.succeed((self.sim.now, self.sim.now))
            return done
        item = WorkItem(task, amount, mode, band, done, attribution)
        self._queues[band].append(item)
        running = self._running
        if running is None:
            if self._parked:
                self._parked = False
                self.sim._soon1(self._wake, self._epoch)
        elif band < running.band:
            self.sim._soon1(self._preempt, None)
        return done

    @property
    def run_queue_length(self):
        return sum(len(q) for q in self._queues) + (1 if self._running else 0)

    def utilization(self, now):
        return self.busy_time / now if now > 0 else 0.0

    # ------------------------------------------------------------------

    def _pick(self):
        for queue in self._queues:
            if queue:
                return queue.popleft()
        return None

    def _next(self):
        """Pick the next item and start its slice, or park the core."""
        item = self._pick()
        if item is None and self.cpu_set is not None:
            item = self.cpu_set.steal(self)
        if item is None:
            self._running = None
            self._parked = True
            self._epoch += 1
            return

        self._running = item
        sim = self.sim
        costs = self.costs
        task = item.task
        overhead = 0.0
        if task is not None and task is not self._last_task:
            cost, probe, analyzer, enabled = self.kernel.tracepoints.site(_SWITCH)
            overhead = costs.context_switch + cost
            self._switch_split = (probe, analyzer)
            if enabled:
                self._fire_switch(self._last_task, task)
            self._last_task = task
            self.ctx_switch_count += 1
            task.ctx_switches += 1

        if task is not None:
            task.state = TASK_RUNNING
        if item.started_at is None:
            item.started_at = sim.now + overhead

        slice_target = item.remaining
        if item.band != BAND_IRQ:
            slice_target = min(costs.quantum, item.remaining)

        self._start = sim.now
        self._overhead = overhead
        self._slice = slice_target
        epoch = self._epoch = self._epoch + 1
        sim._at(overhead + slice_target, self._slice_done, epoch)

    def _wake(self, epoch):
        """Start hop or wake: the core leaves idle unless a preempt
        already moved it on."""
        if epoch == self._epoch:
            self._next()

    def _slice_done(self, epoch):
        """The slice timer fired: account the slice and start the next,
        unless a preempt already cut this slice short."""
        if epoch == self._epoch:
            self._account(self._slice, self._overhead, False)
            self._next()

    def _preempt(self, _arg):
        """A higher band arrived: cut the slice short where it stands.

        The slice's pending timer goes stale.  A preempt queued in the
        instant that timer fires lands after the slice is accounted and
        cuts the next slice at zero elapsed time.  A preempt may also land
        on a core that already went idle (a sibling stole the item that
        caused it), where a pending wake goes stale instead.
        """
        self._epoch += 1
        if self._running is None:
            self._parked = False
            self._next()
            return
        elapsed = self.sim.now - self._start
        overhead = self._overhead
        ran = max(0.0, elapsed - overhead)
        self._account(ran, min(overhead, elapsed), True)
        self._next()

    def _account(self, ran, overhead, preempted):
        """Charge the slice that just ended and requeue or finish its item."""
        item = self._running
        self.busy_time += ran + overhead
        mode_time = self.mode_time
        mode_time["ctx"] += overhead
        mode_time["user" if item.mode == "user" else "kernel"] += ran
        task = item.task
        if task is not None:
            task.charge(item.mode, ran)
        ledger = self.kernel.ledger
        if ledger is not None and (ran > 0.0 or overhead > 0.0):
            self._attribute(ledger, item, ran, overhead, self._overhead)

        item.remaining -= ran
        if item.remaining <= _EPSILON:
            if task is not None and task.state == TASK_RUNNING:
                task.state = TASK_READY
            item.done.succeed((item.started_at, self.sim.now))
        elif preempted:
            self._queues[item.band].appendleft(item)
        else:
            self._queues[item.band].append(item)
            if task is not None and task.state == TASK_RUNNING:
                task.state = TASK_READY

    def _attribute(self, ledger, item, ran, overhead, full_overhead):
        """Hand the seconds just added to ``busy_time`` to the attribution
        ledger, split by category.

        Host-side bookkeeping only — no simulated state is touched.  The
        pieces are constructed so they sum to ``ran + overhead`` up to
        float rounding (remainders land on the final share), keeping
        per-node ledger totals within a relative 1e-9 of ``busy_time``.
        """
        account = ledger.account(self.kernel.name)
        task = item.task
        sticky = task.category if task is not None else None
        if overhead > 0.0:
            # Context-switch overhead: the sched_switch probe/analyzer
            # portion is monitoring cost; the base switch is charged to
            # whoever caused the switch (the incoming item's category).
            probe, analyzer = self._switch_split
            monitoring = probe + analyzer
            if monitoring > 0.0 and overhead < full_overhead and full_overhead > 0.0:
                scale = overhead / full_overhead  # truncated by an interrupt
                probe *= scale
                analyzer *= scale
                monitoring = probe + analyzer
            if monitoring > overhead:  # float rounding guard
                probe = min(probe, overhead)
                analyzer = overhead - probe
                monitoring = overhead
            category = sticky or "workload"
            account[category] = account.get(category, 0.0) + (overhead - monitoring)
            if monitoring > 0.0:
                account["probe"] = account.get("probe", 0.0) + probe
                account["analyzer"] = account.get("analyzer", 0.0) + analyzer
        if ran <= 0.0:
            return
        attribution = item.attribution
        if attribution is None:
            category = sticky or "workload"
        elif attribution.__class__ is str:
            category = sticky or attribution
        else:
            # Composite charge: scale each piece to this slice; only the
            # base yields to the task's sticky category.  The float
            # remainder goes to the last nonzero piece so zero-cost
            # monitoring pieces never pick up a stray -0.0.
            category, base, probe, analyzer = attribution
            if sticky is not None:
                category = sticky
            if probe > 0.0 or analyzer > 0.0:
                scale = ran / item.total if item.total > 0.0 else 0.0
                charged = base * scale
                if charged != 0.0:
                    account[category] = account.get(category, 0.0) + charged
                category = "probe"
                if analyzer > 0.0:
                    share = probe * scale
                    if share != 0.0:
                        account["probe"] = account.get("probe", 0.0) + share
                        charged += share
                    category = "analyzer"
                ran -= charged
        account[category] = account.get(category, 0.0) + ran

    def _fire_switch(self, prev, nxt):
        self.kernel.tracepoints.fire(
            tp.SCHED_SWITCH,
            prev_pid=prev.pid if prev is not None else 0,
            prev_name=prev.name if prev is not None else "swapper",
            next_pid=nxt.pid,
            next_name=nxt.name,
        )


class CpuSet:
    """SMP: several cores behind one submission interface.

    The paper's testbed was uniprocessor, but its conclusion anticipates
    multi-core: "it won't be unusual to have a core dedicated to the
    analysis of the services that run on that platform".  The set routes:

    * interrupt work (``task is None``) to core 0, as commodity kernels
      default to;
    * pinned tasks (``task.affinity`` set) to their core;
    * everything else to the shortest run queue (deterministic
      tie-break by core index) — a simple load-balancing placement with
      per-burst migration.

    Aggregated accounting keeps the rest of the kernel (and SysProf's
    node statistics) oblivious to the core count.
    """

    __slots__ = ("sim", "kernel", "costs", "cores", "steals")

    def __init__(self, sim, kernel, costs, count):
        if count < 1:
            raise ValueError("a node needs at least one CPU")
        self.sim = sim
        self.kernel = kernel
        self.costs = costs
        self.cores = [Cpu(sim, kernel, costs, index=i) for i in range(count)]
        for core in self.cores:
            core.cpu_set = self
        self.steals = 0

    def __len__(self):
        return len(self.cores)

    def steal(self, thief):
        """Work stealing: an idle core pulls a queued (unpinned, non-IRQ)
        item from a sibling's run queue tail."""
        for core in self.cores:
            if core is thief:
                continue
            for band in (1, 2):  # kernel daemons first, then user
                queue = core._queues[band]
                for position in range(len(queue) - 1, -1, -1):
                    item = queue[position]
                    if item.task is None or item.task.affinity is not None:
                        continue
                    del queue[position]
                    self.steals += 1
                    return item
        return None

    def core(self, index):
        return self.cores[index]

    def submit(self, task, amount, mode="user", band=None, attribution=None):
        if task is None:
            target = self.cores[0]
        elif getattr(task, "affinity", None) is not None:
            target = self.cores[task.affinity]
        else:
            target = min(
                self.cores, key=lambda core: (core.run_queue_length, core.index)
            )
        return target.submit(
            task, amount, mode=mode, band=band, attribution=attribution
        )

    # -- aggregated accounting -----------------------------------------

    @property
    def busy_time(self):
        return sum(core.busy_time for core in self.cores)

    @property
    def mode_time(self):
        total = {"user": 0.0, "kernel": 0.0, "ctx": 0.0}
        for core in self.cores:
            for key, value in core.mode_time.items():
                total[key] += value
        return total

    @property
    def ctx_switch_count(self):
        return sum(core.ctx_switch_count for core in self.cores)

    @property
    def run_queue_length(self):
        return sum(core.run_queue_length for core in self.cores)

    def utilization(self, now):
        if now <= 0:
            return 0.0
        return self.busy_time / (now * len(self.cores))

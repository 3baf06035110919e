"""Ledger schedule oracle: a scripted CPU run's attribution against stored data.

The CPU hands every slice it accounts to the attribution ledger, split
by category (``Cpu._attribute``).  The other ledger tests compare with a
tolerance, so none of them sees a ledger float move; this script pins
every ``(node, category)`` value bit for bit.  It drives a 1-core node
and a 2-core node, each with Kprof attached and ``sched.switch`` and
``syscall.entry`` subscribed before the first slice, through:

* every attribution shape: none, a category string, and a composite
  ``(category, base, probe, analyzer)`` with probe only, analyzer only,
  both, and neither;
* a sticky ``"analyzer"`` task running a composite charge;
* a composite cut short by an interrupt (scaled to the slice);
* an interrupt landing inside a slice's context-switch overhead;
* syscall entry/exit through the task context;
* work stealing on the 2-core node.

Probe and analyzer costs are not dyadic, so a change in the order or
grouping of the ledger's additions shows in the last bits.  The trace
(every item's ``(start, end)``, every ledger float as ``float.hex``,
and each core's ``busy_time``) is pinned by its sha256 and length in
``tests/fixtures/golden_digests.json``.
"""

import hashlib

from repro.cluster import Cluster
from repro.core.kprof import Kprof
from repro.observability import ledger as cpu_ledger
from repro.ossim import tracepoints as tp
from repro.ossim.costs import CostModel
from repro.ossim.task import BAND_IRQ, BAND_KERNEL, BAND_USER, Task

#: One "tick" of the script: every submit time is a multiple of it.
TICK = 2.0 ** -10

COSTS = CostModel().override(
    context_switch=TICK, quantum=64 * TICK, probe_fire=3e-5, syscall_entry=7e-6,
)

#: Declared analyzer costs of the two subscriptions.
SWITCH_ANALYZER = 7e-5
SYSCALL_ANALYZER = 1.1e-5


def _ledger_schedule():
    ledger = cpu_ledger.install()
    try:
        cluster = Cluster(seed=5, costs=COSTS)
        uni = cluster.add_node("uni")
        smp = cluster.add_node("smp", cpus=2)
    finally:
        cpu_ledger.uninstall()
    sim = cluster.sim
    for node in (uni, smp):
        kprof = Kprof(node.kernel).attach()
        kprof.subscribe([tp.SCHED_SWITCH], lambda event: None, cost=SWITCH_ANALYZER)
        kprof.subscribe([tp.SYSCALL_ENTRY], lambda event: None, cost=SYSCALL_ANALYZER)
    trace = []
    pids = iter(range(100, 200))

    def task(node, name, band=BAND_USER, category=None):
        owner = Task(next(pids), name, node.kernel, band=band)
        owner.category = category
        return owner

    def run(cpu, label, owner, amount, mode="user", band=None, attribution=None):
        done = cpu.submit(owner, amount, mode, band=band, attribution=attribution)
        done.add_callback(
            lambda waitable: trace.append((label,) + waitable.value)
        )

    def at(ticks, fn, *args, **kwargs):
        sim.schedule_at(ticks * TICK, lambda: fn(*args, **kwargs))

    # -- 1-core node ---------------------------------------------------
    cpu = uni.kernel.cpu
    u1, u2, u3 = task(uni, "u1"), task(uni, "u2"), task(uni, "u3")
    kd = task(uni, "kd", band=BAND_KERNEL)
    sticky = task(uni, "lpa", category="analyzer")
    daemon = task(uni, "sysprofd", band=BAND_KERNEL, category="dissemination")
    # No attribution, then a probe-only composite that needs two quanta.
    at(0, run, cpu, "none", u1, 40 * TICK)
    at(0, run, cpu, "probe-only", u2, 70 * TICK + 1e-4 / 3,
       attribution=("netstack", 70 * TICK, 1e-4 / 3, 0.0))
    # A category string and an analyzer-only composite.
    at(1, run, cpu, "string", u3, 9 * TICK, attribution="blockio")
    at(1, run, cpu, "analyzer-only", kd, 5 * TICK + 2.3e-5, "kernel",
       attribution=("syscall", 5 * TICK, 0.0, 2.3e-5))
    # A composite with both pieces, cut short by an interrupt mid-slice.
    both = ("syscall", 30 * TICK, 1.7e-5, 4.1e-5)
    at(200, run, cpu, "both", u1, sum(both[1:]), attribution=both)
    at(215, run, cpu, "irq-cut", None, 3 * TICK, "kernel", BAND_IRQ,
       attribution="netstack")
    # A composite with neither monitoring piece.
    at(300, run, cpu, "neither", u2, 12 * TICK,
       attribution=("blockio", 12 * TICK, 0.0, 0.0))
    # A sticky "analyzer" task's composite: its base piece is analyzer
    # time too; and a sticky daemon's category string.
    sticky_charge = ("syscall", 11 * TICK, 1.3e-5, 2.9e-5)
    at(400, run, cpu, "sticky", sticky, sum(sticky_charge[1:]),
       attribution=sticky_charge)
    at(400, run, cpu, "sticky-string", daemon, 6 * TICK, "kernel",
       attribution="netstack")
    # An interrupt inside the context-switch overhead of u3's slice
    # (the switch takes one tick plus the sched.switch probe cost).
    at(1000, run, cpu, "after-switch", u3, 20 * TICK,
       attribution=("workload", 20 * TICK - 5e-5, 2e-5, 3e-5))
    sim.schedule_at(1000.5 * TICK, lambda: run(
        cpu, "irq-in-switch", None, 2 * TICK + 3e-6, "kernel", BAND_IRQ,
        attribution=("netstack", 2 * TICK, 3e-6, 0.0)))

    def syscalls(ctx):
        yield from ctx.sleep(1200 * TICK)
        for _ in range(3):
            yield from ctx._sys_enter("read")
            yield from ctx.compute(4 * TICK)
            yield from ctx._sys_exit("read")

    uni.spawn("sys", syscalls)

    # -- 2-core node ---------------------------------------------------
    cores = smp.kernel.cpu
    s_a, s_b, s_c = task(smp, "a"), task(smp, "b", category="analyzer"), task(smp, "c")
    # Core 1 runs out of work first and steals b's composite from the
    # tail of core 0's queue.
    at(0, run, cores.core(0), "smp-a", s_a, 64 * TICK,
       attribution=("workload", 64 * TICK - 1e-5, 1e-5, 0.0))
    at(0, run, cores.core(0), "smp-b", s_b, 24 * TICK + 5.5e-5,
       attribution=("syscall", 24 * TICK, 2.5e-5, 3e-5))
    at(0, run, cores.core(1), "smp-c", s_c, 10 * TICK, attribution="netstack")
    at(5, run, cores, "smp-irq", None, 2 * TICK, "kernel", BAND_IRQ)

    sim.run()
    trace.append(("steals", cores.steals))
    for node in (uni, smp):
        node_cpu = node.kernel.cpu
        for core in getattr(node_cpu, "cores", [node_cpu]):
            trace.append((node.name, core.index, core.busy_time.hex()))
    for node, categories in sorted(ledger.breakdown(include_idle=False).items()):
        for category, seconds in sorted(categories.items()):
            trace.append((node, category, seconds.hex()))
    return trace


def test_ledger_schedule_matches_golden(golden):
    trace = _ledger_schedule()
    observed = {
        "sha256": hashlib.sha256(repr(trace).encode()).hexdigest(),
        "length": len(trace),
    }
    assert observed == golden["ledger_schedule"], (
        "ledger schedule changed; observed {}".format(observed)
    )

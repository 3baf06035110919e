"""Attribution-ledger invariants: category sums, sticky tasks, idle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.kprof import Kprof
from repro.observability import ledger as cpu_ledger
from repro.observability.ledger import CATEGORIES, CpuLedger
from repro.ossim import tracepoints as tp
from repro.ossim.costs import CostModel
from repro.ossim.task import BAND_IRQ, BAND_KERNEL, BAND_USER, Task
from tests.core.helpers import build_monitored_pair, drive_traffic

TICK = 2.0 ** -10


@pytest.fixture
def ledger():
    led = cpu_ledger.install()
    yield led
    cpu_ledger.uninstall()


def test_install_uninstall_lifecycle():
    assert cpu_ledger.active() is None
    led = cpu_ledger.install()
    assert cpu_ledger.active() is led
    cpu_ledger.uninstall()
    assert cpu_ledger.active() is None


def test_kernels_built_without_ledger_carry_none():
    cluster, _sysprof = build_monitored_pair()
    assert cluster.node("server").kernel.ledger is None


def test_breakdown_sums_to_cpu_busy_per_node(ledger):
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof)
    for name in ("client", "server", "mgmt"):
        kernel = cluster.node(name).kernel
        breakdown = ledger.breakdown(name, include_idle=False)
        assert sum(breakdown.values()) == pytest.approx(
            kernel.cpu.busy_time, rel=1e-9, abs=1e-15
        )
        assert ledger.busy_total(name) == pytest.approx(
            kernel.cpu.busy_time, rel=1e-9, abs=1e-15
        )
        # No category ever goes negative.
        for category, seconds in breakdown.items():
            assert seconds >= 0.0, (name, category, seconds)


def test_monitored_node_shows_monitoring_cost(ledger):
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof)
    server = ledger.breakdown("server", include_idle=False)
    # Kprof probes, LPA callbacks, and the daemon all burned CPU.
    assert server["probe"] > 0.0
    assert server["analyzer"] > 0.0
    assert server["dissemination"] > 0.0
    assert 0.0 < ledger.monitoring_share("server") < 1.0
    # The unmonitored client runs no probes and no daemon.
    client = ledger.breakdown("client", include_idle=False)
    assert client["probe"] == 0.0
    assert client["dissemination"] == 0.0
    assert client["workload"] > 0.0
    assert client["syscall"] > 0.0
    assert client["netstack"] > 0.0


def test_idle_is_derived_not_accumulated(ledger):
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof)
    kernel = cluster.node("server").kernel
    breakdown = ledger.breakdown("server", include_idle=True)
    expected_idle = kernel.sim.now * kernel.cpu_count - kernel.cpu.busy_time
    assert breakdown["idle"] == pytest.approx(expected_idle)
    assert set(breakdown) == set(CATEGORIES)


def test_charge_accumulates_plainly():
    led = CpuLedger()
    led.charge("n", "workload", 1.0)
    led.charge("n", "workload", 0.5)
    led.charge("n", "probe", 0.25)
    assert led.breakdown("n", include_idle=False)["workload"] == 1.5
    assert led.busy_total("n") == 1.75
    assert led.monitoring_time("n") == 0.25
    assert led.monitoring_share("n") == pytest.approx(0.25 / 1.75)


def test_table_rows_shape():
    led = CpuLedger()
    led.charge("a", "workload", 0.002)
    rows = led.table()
    assert len(rows) == 1
    # node + 7 non-idle categories + busy + monitoring %
    assert len(rows[0]) == 10
    assert rows[0][0] == "a"


def _ledgered_node(costs, cpus=1):
    """A one-node cluster whose kernel charges a fresh ledger."""
    led = cpu_ledger.install()
    try:
        node = Cluster(seed=1, costs=costs).add_node("n", cpus=cpus)
    finally:
        cpu_ledger.uninstall()
    return led, node


@pytest.mark.parametrize("subscribe_at, unsubscribe_at", [
    (1200, None), (100, None), (None, 1200),
])
def test_switch_monitoring_is_booked_from_the_subscriptions_that_costed_it(
    subscribe_at, unsubscribe_at
):
    """Two user tasks alternate 64-tick quanta behind a one-tick context
    switch while a sched.switch subscriber comes or goes mid-slice.  The
    ledger must book each switch's monitoring as the CPU costed it when
    the slice started, not as the subscriptions stand when it ends."""
    costs = CostModel().override(context_switch=TICK, quantum=64 * TICK)
    led, node = _ledgered_node(costs)
    kernel = node.kernel
    kprof = Kprof(kernel).attach()
    subscriptions = []

    def subscribe():
        subscriptions.append(
            kprof.subscribe([tp.SCHED_SWITCH], lambda event: None, cost=TICK / 4)
        )

    if subscribe_at is None:
        subscribe()
    else:
        node.sim.schedule_at(subscribe_at * TICK, subscribe)
    if unsubscribe_at is not None:
        node.sim.schedule_at(
            unsubscribe_at * TICK, lambda: kprof.unsubscribe(subscriptions[0])
        )
    for pid, name in ((100, "u1"), (101, "u2")):
        kernel.cpu.submit(Task(pid, name, kernel), 640 * TICK)
    node.sim.run()

    cpu = kernel.cpu
    costed = cpu.mode_time["ctx"] - cpu.ctx_switch_count * costs.context_switch
    assert costed > 0.0
    assert led.monitoring_time("n") == pytest.approx(costed, rel=1e-9)
    assert led.busy_total("n") == pytest.approx(cpu.busy_time, rel=1e-9)


#: Base categories a composite charge may carry.
_BASES = ("workload", "syscall", "netstack", "blockio")

_monitoring_seconds = st.one_of(st.just(0.0), st.floats(1e-7, 1e-4))


@st.composite
def _attributions(draw, amount):
    """Every attribution shape for ``amount`` seconds of work; returns
    ``(attribution, seconds to submit)``."""
    shape = draw(st.sampled_from(("none", "string", "composite")))
    if shape == "none":
        return None, amount
    if shape == "string":
        return draw(st.sampled_from(_BASES + ("dissemination",))), amount
    probe, analyzer = draw(_monitoring_seconds), draw(_monitoring_seconds)
    attribution = (draw(st.sampled_from(_BASES)), amount, probe, analyzer)
    return attribution, amount + probe + analyzer


@st.composite
def _submits(draw):
    """One submit: ``(half-tick it arrives at, band, task index, amount,
    attribution)``; interrupts land on half ticks, inside switches too."""
    band = draw(st.sampled_from((BAND_IRQ, BAND_KERNEL, BAND_USER)))
    amount = draw(st.floats(1e-6, 100 * TICK))
    attribution, amount = draw(_attributions(amount))
    return (draw(st.integers(0, 800)), band, draw(st.integers(0, 2)),
            amount, attribution)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    cpus=st.sampled_from((1, 2)),
    stickies=st.lists(
        st.sampled_from((None, "analyzer", "dissemination")), min_size=3, max_size=3
    ),
    switch_subscribers=st.lists(
        st.tuples(st.integers(0, 400), st.floats(1e-7, 1e-4)), max_size=2
    ),
    submits=st.lists(_submits(), min_size=1, max_size=20),
)
def test_ledger_invariants_hold_on_random_schedules(
    cpus, stickies, switch_subscribers, submits
):
    costs = CostModel().override(context_switch=TICK, quantum=64 * TICK)
    led, node = _ledgered_node(costs, cpus=cpus)
    kernel = node.kernel
    sim = node.sim
    kprof = Kprof(kernel).attach()
    for at, cost in switch_subscribers:
        def subscribe(cost=cost):
            kprof.subscribe([tp.SCHED_SWITCH], lambda event: None, cost=cost)

        if at == 0:
            subscribe()
        else:
            sim.schedule_at(at * TICK, subscribe)
    tasks = {}
    for half_ticks, band, index, amount, attribution in submits:
        owner = None
        if band != BAND_IRQ:
            owner = tasks.get((band, index))
            if owner is None:
                owner = tasks[band, index] = Task(100 + len(tasks), "t", kernel, band)
                owner.category = stickies[index]
        sim.schedule_at(
            half_ticks * TICK / 2, kernel.cpu.submit, owner, amount, "kernel",
            band, attribution,
        )
    sim.run()

    busy = kernel.cpu.busy_time
    assert busy > 0.0
    for category, seconds in led.breakdown("n", include_idle=False).items():
        assert seconds >= 0.0, (category, seconds)
    assert abs(led.busy_total("n") - busy) <= 1e-9 * busy
    assert led.monitoring_time("n") <= busy * (1.0 + 1e-9)

"""Failure-detection scenarios: NFS traffic through scripted faults.

The monitoring plane itself is the system under test here.  A small
virtual-storage cluster runs Iozone traffic while a
:class:`~repro.faults.FaultInjector` executes a scripted outage against
one monitored backend; the GPA's ``stale_nodes()`` view is sampled on a
fixed grid and the run reports how long the outage took to detect and
how the disseminatiom daemon recovered (reconnects, backoff spacing).

Two scenarios:

* ``daemon-crash`` — the backend's dissemination daemon is killed and
  later restarted; the node itself keeps serving NFS.
* ``partition`` — the backend and the management node land on opposite
  sides of a switch partition window; application traffic (proxy,
  clients) is unaffected because those nodes stay unmapped.

Everything is seeded: two runs with the same config produce identical
fault times, identical detection latencies, and identical trace digests.
"""

from dataclasses import dataclass, field, replace

from repro.core import SysProfConfig
from repro.experiments.common import trace_digest
from repro.faults import FaultSchedule
from repro.service.scenarios import build_scenario
from repro.workloads.iozone import IozoneConfig

SCENARIOS = ("daemon-crash", "partition")


@dataclass
class FailureExperimentConfig:
    scenario: str = "daemon-crash"
    target: str = "backend1"      # monitored node the fault hits
    clients: int = 1
    backends: int = 1
    threads_per_client: int = 2
    ops_per_thread: int = 48
    fault_start: float = 6.0
    fault_duration: float = 5.0
    fault_jitter: float = 0.0
    stale_threshold: float = 1.0   # quiet-time before a node is suspect
    check_interval: float = 0.25   # stale_nodes sampling grid
    eviction_interval: float = 0.2
    seed: int = 9
    sim_limit: float = 30.0


@dataclass
class FailureRunResult:
    scenario: str
    fault_at: float               # actual (possibly jittered) onset time
    fault_duration: float
    detected: bool
    detection_latency: float      # onset -> first stale_nodes() hit
    recovered: bool
    recovery_latency: float       # scripted recovery -> first clean probe
    send_errors: int
    connect_attempts: int
    reconnects: int
    backoff_skips: int
    endpoints_abandoned: int
    records_received: int
    injected: dict = field(default_factory=dict)
    trace_hash: str = ""


def build_schedule(config):
    """The fault script for one scenario (pure data; no simulator state)."""
    if config.scenario not in SCENARIOS:
        raise ValueError("unknown failure scenario: {!r}".format(config.scenario))
    schedule = FaultSchedule()
    if config.scenario == "daemon-crash":
        schedule.daemon_outage(
            config.fault_start, config.fault_duration, config.target,
            jitter=config.fault_jitter,
        )
    else:
        schedule.partition_window(
            config.fault_start, config.fault_duration,
            [[config.target], ["mgmt"]],
            jitter=config.fault_jitter,
        )
    return schedule


def run_failure_experiment(config=None):
    """One scripted outage; returns a :class:`FailureRunResult`."""
    config = config or FailureExperimentConfig()
    scenario = build_scenario(
        "nfs", seed=config.seed, clients=config.clients,
        backends=config.backends,
        iozone=IozoneConfig(
            threads=config.threads_per_client,
            ops_per_thread=config.ops_per_thread,
        ),
        monitoring=SysProfConfig(
            eviction_interval=config.eviction_interval,
            stale_threshold=config.stale_threshold,
        ),
        rules=(), schedule=build_schedule(config),
    )
    cluster, sysprof, injector = scenario.cluster, scenario.sysprof, scenario.injector

    # Statically pre-scheduled suspicion probes: pure callbacks on a fixed
    # grid, so they cost no model CPU and are identical across same-seed
    # runs.  Each reads the GPA's stale-node view as an operator would.
    target = config.target
    recovery_at = config.fault_start + config.fault_duration
    probe_state = {"detected_at": None, "recovered_at": None}

    def probe():
        now = cluster.sim.now
        # No explicit threshold: the GPA default comes from the installed
        # SysProfConfig.stale_threshold above.
        stale = sysprof.gpa.stale_nodes(now)
        if target in stale:
            if probe_state["detected_at"] is None and now >= config.fault_start:
                probe_state["detected_at"] = now
        elif (
            probe_state["detected_at"] is not None
            and probe_state["recovered_at"] is None
            and now >= recovery_at
        ):
            probe_state["recovered_at"] = now

    ticks = int(config.sim_limit / config.check_interval)
    for tick in range(1, ticks + 1):
        cluster.sim.schedule(tick * config.check_interval, probe)

    with scenario:
        cluster.run(until=config.sim_limit)
    sysprof.flush()

    fault_at = injector.log[0]["at"] if injector.log else config.fault_start
    detected_at = probe_state["detected_at"]
    recovered_at = probe_state["recovered_at"]
    publisher = sysprof.monitor(target).daemon.publisher
    return FailureRunResult(
        scenario=config.scenario,
        fault_at=fault_at,
        fault_duration=config.fault_duration,
        detected=detected_at is not None,
        detection_latency=(detected_at - fault_at) if detected_at else -1.0,
        recovered=recovered_at is not None,
        recovery_latency=(recovered_at - recovery_at) if recovered_at else -1.0,
        send_errors=publisher.send_errors,
        connect_attempts=publisher.connect_attempts,
        reconnects=publisher.reconnects,
        backoff_skips=publisher.backoff_skips,
        endpoints_abandoned=publisher.endpoints_abandoned,
        records_received=sysprof.gpa.records_received,
        injected=injector.summary(),
        trace_hash=trace_digest(sysprof.gpa.query_interactions()),
    )


def run_failure_suite(config=None):
    """Both scenarios at the shared config; returns ``{scenario: result}``."""
    config = config or FailureExperimentConfig()
    return {
        scenario: run_failure_experiment(replace(config, scenario=scenario))
        for scenario in SCENARIOS
    }

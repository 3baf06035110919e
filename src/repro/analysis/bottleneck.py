"""Automatic bottleneck diagnosis from GPA data.

The paper's §3.2 use case: "SysProf can be used to identify the
bottleneck resources.  It not only tells the delay incurred in request
processing on a particular node but also gives fine details like whether
the amount of time was spent in user-level or kernel-level, the number
of outstanding interactions and so on."
"""

from dataclasses import dataclass, field

from repro.sim.stats import mean_field


@dataclass
class NodeDiagnosis:
    node: str
    interaction_count: int
    mean_total_ms: float
    mean_kernel_wait_ms: float
    mean_kernel_cpu_ms: float
    mean_user_ms: float
    mean_io_blocked_ms: float
    dominant_component: str

    @property
    def mean_local_ms(self):
        """Time actually spent at this node (excludes waiting on other
        nodes, which interposers like the NFS proxy accumulate as
        io-blocked time)."""
        return (
            self.mean_kernel_wait_ms + self.mean_kernel_cpu_ms + self.mean_user_ms
        )

    def describe(self):
        return (
            "{node}: {count} interactions, mean {total:.2f} ms "
            "(kernel-wait {wait:.2f}, kernel-cpu {cpu:.2f}, user {user:.2f}, "
            "io-blocked {io:.2f}); dominated by {dom}".format(
                node=self.node,
                count=self.interaction_count,
                total=self.mean_total_ms,
                wait=self.mean_kernel_wait_ms,
                cpu=self.mean_kernel_cpu_ms,
                user=self.mean_user_ms,
                io=self.mean_io_blocked_ms,
                dom=self.dominant_component,
            )
        )


@dataclass
class BottleneckReport:
    nodes: list = field(default_factory=list)
    bottleneck: str = ""
    reason: str = ""

    def describe(self):
        lines = [node.describe() for node in self.nodes]
        lines.append("bottleneck: {} ({})".format(self.bottleneck, self.reason))
        return "\n".join(lines)


def _summary_diagnosis(gpa, node, since=None):
    """Class-summary fallback for tiers without raw interaction records.

    A federated root only sees condensed ``sysprof.class_summary`` rows
    for zone pseudo-nodes, so residency composition is reconstructed from
    count-weighted window means.  The summary format carries no io-blocked
    component; kernel CPU is recovered as kernel_time − kernel_wait.
    """
    rows = [
        record for record in gpa.class_summaries
        if record["node"] == node
        and (since is None or record["window_end"] >= since)
    ]
    total = sum(record["count"] for record in rows)
    if not total:
        return None

    def wmean(field_name):
        return sum(r[field_name] * r["count"] for r in rows) / total

    wait = wmean("mean_kernel_wait")
    components = {
        "kernel-wait": wait,
        "kernel-cpu": max(0.0, wmean("mean_kernel_time") - wait),
        "user": wmean("mean_user_time"),
        "io-blocked": 0.0,
    }
    dominant = max(components, key=lambda key: components[key])
    return NodeDiagnosis(
        node=node,
        interaction_count=total,
        mean_total_ms=wmean("mean_latency") * 1e3,
        mean_kernel_wait_ms=components["kernel-wait"] * 1e3,
        mean_kernel_cpu_ms=components["kernel-cpu"] * 1e3,
        mean_user_ms=components["user"] * 1e3,
        mean_io_blocked_ms=0.0,
        dominant_component=dominant,
    )


def diagnose_node(gpa, node, since=None):
    """Summarize interaction residency composition at one node.

    ``since`` restricts to interactions starting at or after that
    reference time — the online diagnosis engine's recent-window blame.
    Falls back to count-weighted class summaries when the tier holds no
    raw interaction records for the node (federated pseudo-nodes).
    """
    records = gpa.query_interactions(node=node, since=since)
    if not records:
        fallback = _summary_diagnosis(gpa, node, since=since)
        if fallback is not None:
            return fallback
        return NodeDiagnosis(node, 0, 0.0, 0.0, 0.0, 0.0, 0.0, "no-data")
    components = {
        "kernel-wait": mean_field(records, "kernel_wait"),
        "kernel-cpu": mean_field(records, "kernel_cpu"),
        "user": mean_field(records, "user_time"),
        "io-blocked": mean_field(records, "io_blocked"),
    }
    dominant = max(components, key=lambda key: components[key])
    return NodeDiagnosis(
        node=node,
        interaction_count=len(records),
        mean_total_ms=mean_field(records, "total_latency") * 1e3,
        mean_kernel_wait_ms=components["kernel-wait"] * 1e3,
        mean_kernel_cpu_ms=components["kernel-cpu"] * 1e3,
        mean_user_ms=components["user"] * 1e3,
        mean_io_blocked_ms=components["io-blocked"] * 1e3,
        dominant_component=dominant,
    )


def find_bottleneck(gpa, nodes, since=None):
    """Rank nodes by mean interaction residency; name the worst offender.

    Nodes with no observed interactions are reported but never win.
    ``since`` is forwarded to :func:`diagnose_node`.
    """
    diagnoses = [diagnose_node(gpa, node, since=since) for node in nodes]
    candidates = [d for d in diagnoses if d.interaction_count > 0]
    report = BottleneckReport(nodes=diagnoses)
    if not candidates:
        report.bottleneck = "unknown"
        report.reason = "no interaction records received"
        return report
    # Rank by time spent *at* the node: an interposer's total residency
    # includes waiting on its backends (io-blocked), which must not make
    # it the culprit.
    worst = max(candidates, key=lambda d: d.mean_local_ms)
    report.bottleneck = worst.node
    report.reason = (
        "highest mean local residency ({:.2f} ms of {:.2f} ms total), "
        "dominated by {}".format(
            worst.mean_local_ms, worst.mean_total_ms, worst.dominant_component
        )
    )
    return report

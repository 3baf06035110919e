"""Resource-aware DWCS (RA-DWCS).

The paper's §3.3 extension: "a resource-aware DWCS can provide better QoS
guarantees as compared to the ordinary DWCS ... these requests were
routed by RA-DWCS to the server that was lightly loaded."  The DWCS
*scheduling* rules are unchanged; the *routing* decision consumes
SysProf's per-node load metrics, which reach the client through the same
kernel-level publish-subscribe channels the GPA uses (any node can
subscribe).
"""

from repro.core.gpa import GlobalPerformanceAnalyzer


class LoadMonitor:
    """A client-side subscriber to the ``nodestats`` channel.

    Reuses the GPA ingest/query machinery on the scheduler's node — the
    paper's hierarchical analysis: local analyzers feed any interested
    remote consumer, not only the central GPA.
    """

    def __init__(self, node, hub, port=9101):
        self.gpa = GlobalPerformanceAnalyzer(node, hub, port=port)
        hub.subscribe("sysprof/sysprof.nodestats", node.name, port)

    def start(self):
        self.gpa.start()
        return self

    def server_load(self, node_name):
        return self.gpa.server_load(node_name)


class ResourceAwareRouter:
    """Route each request to the least-loaded servlet with a free slot.

    Load score blends CPU utilization (dominant for bidding's CPU-bound
    work) with queue signals; servlets whose slots are exhausted are
    heavily penalized so dispatch never head-of-line blocks while a
    lighter server sits idle.
    """

    #: Score weights: CPU utilization, run-queue length, pending
    #: interactions, and the penalty for a servlet with no free slot.
    utilization_weight = 1.0
    runq_weight = 0.02
    pending_weight = 0.01
    slot_penalty = 10.0

    def __init__(self, servlet_names, load_monitor):
        self.servlet_names = list(servlet_names)
        self.load_monitor = load_monitor
        self._rr = 0
        self.decisions = {name: 0 for name in self.servlet_names}

    def score(self, servlet, dispatcher):
        load = self.load_monitor.server_load(servlet)
        if load is None:
            # No telemetry yet: neutral score keeps routing balanced.
            value = 0.5
        else:
            value = (
                self.utilization_weight * min(2.0, load["cpu_utilization"])
                + self.runq_weight * load["run_queue"]
                + self.pending_weight * load["pending_interactions"]
            )
        if dispatcher.free_slots(servlet) == 0:
            value += self.slot_penalty
        return value

    def choose(self, request, dispatcher):
        best_name = None
        best_score = None
        offset = self._rr
        self._rr += 1
        count = len(self.servlet_names)
        for i in range(count):
            name = self.servlet_names[(offset + i) % count]
            value = self.score(name, dispatcher)
            if best_score is None or value < best_score:
                best_score = value
                best_name = name
        self.decisions[best_name] += 1
        return best_name

"""The Global Performance Analyzer.

Aggregates and correlates records arriving from every node's
dissemination daemon: "it correlates the source and destination IP
addresses, port information, and NTP timestamps in the logs from
different nodes.  After aggregating the resource usage of each individual
interaction, GPA computes the overall performance of the associated
request-response pair.  Other nodes in the system can query the GPA ...
The GPA periodically dumps its information onto local disk."

Since the federation refactor the aggregation/query machinery lives in
:mod:`repro.core.tier` (shared with :class:`~repro.core.federation.ZoneGpa`);
this class adds the root-tier specifics: periodic JSON dumps and the
root's extra ``stats()`` counters.
"""

import json

from repro.core.channels import SYSPROF_PORT_BASE
from repro.core.tier import INTERACTION_KEYS, AnalyzerTier, CausalPath

__all__ = ["CausalPath", "GlobalPerformanceAnalyzer"]


class GlobalPerformanceAnalyzer(AnalyzerTier):
    """Receives channel data on a management node and answers queries."""

    task_name = "gpa"
    conn_task_name = "gpa-conn"

    def __init__(self, node, hub, clock_table=None, port=SYSPROF_PORT_BASE,
                 dump_path=None, dump_interval=None, stale_threshold=1.0):
        super().__init__(
            node, hub, clock_table=clock_table, port=port,
            stale_threshold=stale_threshold, channel_prefix="sysprof/",
        )
        self.dump_path = dump_path
        self.dump_interval = dump_interval
        self.dumps_written = 0
        self._dump_task = None

    # ------------------------------------------------------------------

    def _start_aux(self):
        if self.dump_path and self.dump_interval:
            self._dump_task = self.node.spawn("gpa-dump", self._dumper)
            self._dump_task.category = "analyzer"

    def _aux_tasks(self):
        return [self._dump_task]

    def _on_killed(self):
        self._dump_task = None

    def _dumper(self, ctx):
        while not self._stopped:
            yield from ctx.sleep(self.dump_interval)
            self.dump()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def dump(self, path=None):
        """Write current state as JSON lines (auditing / offline modeling)."""
        target = path or self.dump_path
        if target is None:
            raise ValueError("no dump path configured")
        with open(target, "a", encoding="utf-8") as out:
            header = {
                "type": "gpa-dump",
                "sim_time": self.node.sim.now,
                "records_received": self.records_received,
            }
            out.write(json.dumps(header) + "\n")
            for row in self.interactions:
                record = dict(zip(INTERACTION_KEYS, row))
                out.write(json.dumps({"type": "interaction", **record}) + "\n")
            for node, history in self.node_stats.items():
                if history:
                    out.write(json.dumps({"type": "nodestats", **history[-1]}) + "\n")
        self.dumps_written += 1
        return target

    def stats(self):
        result = super().stats()
        result["cpa_metrics"] = len(self.cpa_metrics)
        result["syscall_summaries"] = len(self.syscall_summaries)
        result["dumps_written"] = self.dumps_written
        return result

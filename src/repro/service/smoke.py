"""The ``repro serve --smoke`` self-check: boot, query, stream, control.

One scripted pass over the live-service acceptance surface, exercising
the real socket path (ephemeral TCP port, line-delimited JSON) against a
supervised NFS scenario:

1. queries — sketch percentiles, metrics snapshot, CPU-ledger breakdown;
2. streaming — subscribe, stage a CPU hog via ``inject_fault``, and
   watch at least one alert fire *and* clear arrive as pushed events
   (the anomaly detector's slope watch fires before the p95 SLO rule);
3. controls — a mid-flight SLO retune and a drill-down/restore pair;
4. clean shutdown through the ``shutdown`` op.

Each step prints ``ok``/``FAIL``; the exit code is the failure count.
CI runs this as the serve-smoke job.
"""

import threading
import time

from repro.service.server import ServiceServer, SocketClient
from repro.service.supervisor import Supervisor

#: Simulated-seconds budget for the whole smoke pass (the event wait
#: aborts when the supervisor's clock passes this).
SMOKE_HORIZON = 30.0


def run_smoke(scenario="nfs"):
    """Run the scripted self-check; returns the number of failed steps."""
    failures = []

    def check(label, ok, detail=""):
        print("  {:<44} {}{}".format(
            label, "ok" if ok else "FAIL",
            " — {}".format(detail) if detail and not ok else "",
        ))
        if not ok:
            failures.append(label)

    supervisor = Supervisor(scenario)
    server = ServiceServer(supervisor).start()
    print("serve --smoke: {} scenario on {}".format(scenario, server.address))

    pump_errors = []

    def pump_loop():
        try:
            while not supervisor.stopping:
                supervisor.pump()
        except Exception as exc:  # surfaced as a failed step below
            pump_errors.append(exc)

    pump_thread = threading.Thread(
        target=pump_loop, name="repro-serve-pump", daemon=True
    )
    pump_thread.start()
    client = SocketClient(server.host, server.port)
    try:
        # -- queries ----------------------------------------------------
        ping = client.call("ping")
        check("ping answers with scenario + clock",
              ping.get("scenario") == scenario and ping.get("now", -1) >= 0)
        # Let a few eviction windows land before querying sketches.
        while supervisor.now < 1.0 and not pump_errors:
            time.sleep(0.02)
        sketch = client.call("sketch", **{"class": "nfs-write"})
        check("sketch query returns percentiles",
              sketch["count"] > 0 and sketch["percentiles"]["p95"] > 0.0,
              str(sketch))
        metrics = client.call("metrics", pattern="sysprof.node.*.cpu_busy")
        check("metrics query returns CPU gauges",
              len(metrics["metrics"]) >= 3, str(sorted(metrics["metrics"])))
        ledger = client.call("ledger")
        busy = {n: v["busy"] for n, v in ledger["nodes"].items()}
        check("ledger query returns per-node breakdowns",
              len(busy) >= 3 and any(v > 0.0 for v in busy.values()),
              str(busy))
        # -- streaming --------------------------------------------------
        client.call("subscribe", events=["alert"])
        client.call("inject_fault", events=[{
            "at": 0.5, "kind": "cpu_hog", "target": "backend1",
            "params": {"duration": 2.0, "utilization": 0.95},
        }])
        fired, cleared = [], []
        sources = set()
        while not cleared and not pump_errors:
            if supervisor.now > SMOKE_HORIZON:
                break
            try:
                event = client.read_event(timeout=60)
            except OSError:
                break  # wall-clock timeout: the checks below report FAIL
            alert = event["data"]["alert"]
            sources.add(alert.get("source"))
            if event["data"]["state"] == "fire":
                fired.append(alert["rule"])
            else:
                cleared.append(alert["rule"])
        check("subscriber streamed an alert fire", bool(fired), str(fired))
        check("subscriber streamed an alert clear", bool(cleared), str(cleared))
        check("anomaly detector flagged the hog",
              "anomaly" in sources, str(sources))
        # -- controls ---------------------------------------------------
        retune = client.call("set_rules", rules=["p95(nfs-write) < 50ms"])
        rules = client.call("rules")["rules"]
        check("mid-flight SLO retune applied",
              retune["rules"] == ["p95(nfs-write) < 50ms"]
              and [r["name"] for r in rules] == ["p95(nfs-write) < 50ms"],
              str(rules))
        drill = client.call("drill_down", node="backend2")
        restored = client.call("restore", node="backend2")
        check("drill-down + restore round-trip",
              drill["saved"]["eviction_interval"] > 0.0
              and restored["restored"] is True, str((drill, restored)))
        # -- shutdown ---------------------------------------------------
        down = client.call("shutdown")
        pump_thread.join(timeout=10.0)
        check("clean shutdown", down["stopping"] is True
              and not pump_thread.is_alive())
        check("pump loop raised no errors", not pump_errors,
              str(pump_errors))
    finally:
        client.close()
        server.stop()
        if not supervisor.stopping:
            supervisor.shutdown()
    print("serve --smoke: {} step(s) failed".format(len(failures))
        if failures else "serve --smoke: all steps passed")
    return len(failures)

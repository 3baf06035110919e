"""Federation tree scaling: bounded root load as the cluster grows.

ROADMAP item 1's acceptance bench: root ingress bytes/s and root
simulated-CPU share must grow *sublinearly* in node count when the
federation tree is on, while the flat install (same spine/leaf topology,
same synthetic telemetry) grows linearly.  Staleness p95 at the root
must stay under the stale threshold at the largest scale — condensation
must not make the root's failure detector blind.

A second micro-section pins the O(1) switch forwarding claim: per-hop
host cost through one switch must stay flat as the port count grows
16 → 1024 (dict routing, no linear scans).

Results append to the ``trajectory`` list in ``BENCH_federation.json``
at the repo root; see docs/federation.md for how to read it.
"""

import time
from pathlib import Path

from repro.cluster import Cluster
from repro.experiments.common import record_trajectory
from repro.experiments.federation import (
    FederationConfig,
    run_federation_sweep,
    sweep_payload,
)
from repro.netsim.packet import Address, Packet

from benchmarks.conftest import SMOKE, report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_federation.json"

#: Monitored node counts per mode; the sublinearity assertion compares
#: the first and last federated points.
NODE_COUNTS = (16,) if SMOKE else (16, 64, 256)
#: Simulated seconds per point.
DURATION = 3.0 if SMOKE else 5.0
#: Federated growth must stay under this fraction of the node growth.
SUBLINEAR_FRACTION = 0.75
#: At the largest scale, federation must cut root ingress at least this much.
CUT_FLOOR = 2.0
#: Switch micro-bench: forwards timed per port count, and the allowed
#: per-hop cost ratio between the largest and smallest port counts.
FORWARDS = 5000 if SMOKE else 20000
PORT_COUNTS = (16, 1024)
PER_HOP_RATIO_CEILING = 3.0


def _per_hop_seconds(ports):
    """Host seconds per switch _forward with ``ports`` attached NICs."""
    cluster = Cluster(seed=3)
    cluster.add_nodes(["h{}".format(i) for i in range(ports)])
    switch = cluster.fabric.switch
    ips = sorted(switch._downlinks)
    packets = [
        Packet(Address(ips[0], 1), Address(ips[i % len(ips)], 2), 64)
        for i in range(64)
    ]
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for i in range(FORWARDS):
            switch._forward(packets[i % 64])
        best = min(best, time.perf_counter() - started)
    assert switch.forwarded >= FORWARDS
    return best / FORWARDS


def test_federation_bounds_root_load():
    base = FederationConfig(duration=DURATION)
    sweep = run_federation_sweep(node_counts=NODE_COUNTS, base_config=base)
    points = sweep["points"]
    flat = {p.nodes: p for p in points if not p.federated}
    fed = {p.nodes: p for p in points if p.federated}

    # Switch O(1) forwarding: per-hop cost flat 16 -> 1024 ports.
    per_hop = {ports: _per_hop_seconds(ports) for ports in PORT_COUNTS}
    hop_ratio = per_hop[PORT_COUNTS[-1]] / per_hop[PORT_COUNTS[0]]

    if not SMOKE:  # smoke runs never append to the recorded trajectory
        payload = sweep_payload(sweep)
        payload["switch_per_hop_ns"] = {
            str(ports): round(seconds * 1e9, 1)
            for ports, seconds in per_hop.items()
        }
        record_trajectory(BENCH_PATH, "sysprof-repro/bench-federation/v1", payload)

    report(
        "federation scaling (written to BENCH_federation.json)",
        ("nodes", "mode", "zones", "root B/s", "root CPU share", "stale p95"),
        [p.row() for p in points],
        notes=(
            "switch per-hop: {:.0f}ns @{} ports vs {:.0f}ns @{} ports "
            "(ratio {:.2f}, ceiling {:.1f})".format(
                per_hop[PORT_COUNTS[0]] * 1e9, PORT_COUNTS[0],
                per_hop[PORT_COUNTS[-1]] * 1e9, PORT_COUNTS[-1],
                hop_ratio, PER_HOP_RATIO_CEILING,
            ),
        ),
    )

    assert hop_ratio < PER_HOP_RATIO_CEILING, (
        "per-hop cost grew {:.2f}x from {} to {} ports".format(
            hop_ratio, PORT_COUNTS[0], PORT_COUNTS[-1]
        )
    )

    largest = max(NODE_COUNTS)
    # Federation must beat flat at every scale, decisively at the largest.
    for nodes in NODE_COUNTS:
        assert fed[nodes].root_ingress_bytes < flat[nodes].root_ingress_bytes
    cut = flat[largest].root_bytes_per_s / max(fed[largest].root_bytes_per_s, 1e-9)
    assert cut >= CUT_FLOOR, (
        "federation only cut root ingress {:.1f}x at {} nodes".format(
            cut, largest
        )
    )
    # Root staleness stays under the SLO with condensed forwarding.
    assert fed[largest].staleness_samples > 0
    assert fed[largest].staleness_p95 < base.stale_threshold, (
        "root staleness p95 {:.3f}s >= threshold {:.1f}s".format(
            fed[largest].staleness_p95, base.stale_threshold
        )
    )
    # Every child zone reported and forwarded condensed rows.
    assert fed[largest].root_children == fed[largest].zones
    assert fed[largest].zone_rows_forwarded > 0

    if len(NODE_COUNTS) >= 2:
        smallest = min(NODE_COUNTS)
        node_growth = largest / smallest
        byte_growth = (
            fed[largest].root_bytes_per_s / max(fed[smallest].root_bytes_per_s, 1e-9)
        )
        cpu_growth = (
            fed[largest].root_cpu_share / max(fed[smallest].root_cpu_share, 1e-9)
        )
        assert byte_growth <= SUBLINEAR_FRACTION * node_growth, (
            "federated root bytes grew {:.1f}x over a {:.0f}x node increase".format(
                byte_growth, node_growth
            )
        )
        assert cpu_growth <= SUBLINEAR_FRACTION * node_growth, (
            "federated root CPU grew {:.1f}x over a {:.0f}x node increase".format(
                cpu_growth, node_growth
            )
        )
        # The flat baseline is the contrast: it tracks node count.
        flat_growth = (
            flat[largest].root_bytes_per_s / max(flat[smallest].root_bytes_per_s, 1e-9)
        )
        assert flat_growth > byte_growth

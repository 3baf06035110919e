"""Shared mini-application used by the core toolkit tests."""

import importlib
import sys

from repro.cluster import Cluster
from repro.core import SysProf, SysProfConfig


def build_monitored_pair(seed=13, config=None, monitored=("server",),
                         gpa_node="mgmt"):
    """client/server/mgmt cluster with SysProf installed and started."""
    cluster = Cluster(seed=seed)
    cluster.add_node("client")
    cluster.add_node("server")
    cluster.add_node("mgmt")
    sysprof = SysProf(
        cluster, config or SysProfConfig(eviction_interval=0.05)
    )
    sysprof.install(monitored=list(monitored), gpa_node=gpa_node)
    sysprof.start()
    return cluster, sysprof


def load_or_block_numpy(load, monkeypatch):
    """Import numpy into the process (when it is installed), or make
    every ``import numpy`` raise ImportError until the test ends.  The
    frame decoder is struct-only and must behave the same either way."""
    if not load:
        monkeypatch.setitem(sys.modules, "numpy", None)
        return
    try:
        importlib.import_module("numpy")
    except ImportError:
        pass


def echo_server(ctx, port=8080, compute=0.002, response_bytes=3000):
    lsock = yield from ctx.listen(port)
    while True:
        sock = yield from ctx.accept(lsock)
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            yield from ctx.compute(compute)
            yield from ctx.send_message(sock, response_bytes, kind="reply")


def request_client(ctx, server="server", port=8080, count=10,
                   request_bytes=10000, think=0.01, kind="query"):
    sock = yield from ctx.connect(server, port)
    for _ in range(count):
        yield from ctx.send_message(sock, request_bytes, kind=kind)
        yield from ctx.recv_message(sock)
        if think:
            yield from ctx.sleep(think)
    yield from ctx.close(sock)
    return count


def drive_traffic(cluster, sysprof, count=10, run_until=3.0):
    cluster.node("server").spawn("srv", echo_server)
    cluster.node("client").spawn("cli", request_client, "server", 8080, count)
    cluster.run(until=run_until)
    sysprof.flush()

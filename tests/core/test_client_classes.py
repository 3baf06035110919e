"""Client-class accounting: per-customer aggregation at the LPA."""


from repro.cluster import Cluster
from repro.core import SysProf, SysProfConfig
from repro.core.controller import classify_by_client, classify_by_client_group
from repro.core.lpa import classify_by_kind


def _multi_client_cluster():
    cluster = Cluster(seed=73)
    gold = cluster.add_node("gold-client")
    bronze = cluster.add_node("bronze-client")
    cluster.add_node("server")
    cluster.add_node("mgmt")
    sysprof = SysProf(
        cluster, SysProfConfig(eviction_interval=0.05, granularity="class")
    )
    sysprof.install(monitored=["server"], gpa_node="mgmt")
    sysprof.start()

    def server(ctx):
        lsock = yield from ctx.listen(8080)
        while True:
            sock = yield from ctx.accept(lsock)
            ctx.spawn("h", handler, sock)

    def handler(ctx, sock):
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            yield from ctx.compute(0.001)
            yield from ctx.send_message(sock, 500, kind="reply")

    def client(ctx, count):
        sock = yield from ctx.connect("server", 8080)
        for _ in range(count):
            yield from ctx.send_message(sock, 2000, kind="api")
            yield from ctx.recv_message(sock)
            yield from ctx.sleep(0.01)
        yield from ctx.close(sock)

    cluster.node("server").spawn("srv", server)
    gold.spawn("gold", client, 6)
    bronze.spawn("bronze", client, 3)
    return cluster, sysprof, gold, bronze


def test_classify_by_client_splits_per_ip():
    cluster, sysprof, gold, bronze = _multi_client_cluster()
    sysprof.controller.set_classifier(classify_by_client, node="server")
    cluster.run(until=2.0)
    sysprof.flush()
    counts = {}
    for summary in sysprof.gpa.class_summaries:
        counts[summary["request_class"]] = (
            counts.get(summary["request_class"], 0) + summary["count"]
        )
    assert counts == {
        "client:{}".format(gold.ip): 6,
        "client:{}".format(bronze.ip): 3,
    }


def test_classify_by_group_names_tiers():
    cluster, sysprof, gold, bronze = _multi_client_cluster()
    sysprof.controller.set_classifier(
        classify_by_client_group({"gold": [gold.ip]}, default="best-effort"),
        node="server",
    )
    cluster.run(until=2.0)
    sysprof.flush()
    counts = {}
    for summary in sysprof.gpa.class_summaries:
        counts[summary["request_class"]] = (
            counts.get(summary["request_class"], 0) + summary["count"]
        )
    assert counts == {"gold": 6, "best-effort": 3}


def test_classify_by_kind_default():
    cluster, sysprof, gold, bronze = _multi_client_cluster()
    sysprof.controller.set_classifier(classify_by_kind, node="server")
    cluster.run(until=2.0)
    sysprof.flush()
    classes = {s["request_class"] for s in sysprof.gpa.class_summaries}
    assert classes == {"api"}

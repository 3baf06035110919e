"""RUBiS servlet servers (the Java HTTP servlets tier)."""

from repro.apps.rubis.db import DB_PORT

SERVLET_PORT = 8009

#: CPU to decode the HTTP request and set up the servlet call.
DISPATCH_COST = 80e-6


class ServletServer:
    """One servlet container; a handler task per front-end connection.

    Per request: class-specific user CPU (bidding is CPU-heavy), one DB
    query over a per-handler connection, and a class-sized response
    (comments return large pages — "significant network traffic").
    """

    def __init__(self, node, db_node, port=SERVLET_PORT):
        self.node = node
        self.db_node = db_node
        self.port = port
        self.name = "servlet-{}".format(node.name)
        self.requests = 0
        self.by_class = {}
        self.task = None

    def start(self):
        self.task = self.node.spawn(self.name, self._acceptor)
        return self

    def _acceptor(self, ctx):
        lsock = yield from ctx.listen(self.port)
        index = 0
        while True:
            sock = yield from ctx.accept(lsock)
            ctx.spawn("{}-h{}".format(self.name, index), self._handler, sock)
            index += 1

    def _handler(self, ctx, sock):
        db_sock = yield from ctx.connect(self.db_node, DB_PORT)
        while True:
            request = yield from ctx.recv_message(sock)
            if request is None:
                break
            meta = dict(request.meta or {})
            self.requests += 1
            name = meta.get("class", "unknown")
            self.by_class[name] = self.by_class.get(name, 0) + 1
            yield from ctx.compute(DISPATCH_COST)
            # Class-specific servlet computation (bidding is CPU-intensive).
            yield from ctx.compute(meta.get("servlet_cpu", 1e-3))
            # One database round trip.
            yield from ctx.send_message(db_sock, 300, kind="db-query", meta=meta)
            reply = yield from ctx.recv_message(db_sock)
            if reply is None:
                break
            response_bytes = meta.get("response_bytes", 2048)
            yield from ctx.send_message(
                sock, response_bytes, kind=meta.get("class", "reply"), meta=meta
            )
        yield from ctx.close(db_sock)

    def stats(self):
        return {"requests": self.requests, "by_class": dict(self.by_class)}

"""User-level forwarding proxies.

Models the interposers in the paper's case studies: the user-level NFS
proxy of the virtual storage service (§3.2) and the Apache front-end of
the RUBiS site (§3.3).

Two concurrency models are provided:

* ``worker`` (default) — one user-level worker task per accepted client
  connection, forwarding synchronously (recv -> parse -> forward ->
  wait -> reply).  This matches process-per-connection servers (Apache
  prefork, classic interposed request routers).  Each worker keeps its
  own backend connections, so every flow stays strictly
  request/response-alternating — the regime where the paper's black-box
  message extraction is exact.
* ``eventloop`` — a single task multiplexing every connection through a
  :class:`~repro.ossim.selector.Selector`, forwarding asynchronously.
  Demonstrates the interleaving limitation the paper acknowledges
  ("certain activities (like the interleaved request) cannot be
  monitored efficiently without domain-specific knowledge").

Either way the proxy does "very little processing" per request
(``parse_cost``/``reply_cost`` of user CPU), so bursts queue in the
kernel ahead of it — the effect Figure 4 measures.
"""

import zlib
from itertools import count

from repro.ossim.selector import Selector


class ForwardingProxy:
    """Listens on ``listen_port``; forwards by ``route`` to named backends.

    ``backends`` maps a backend key to ``(node_name, port)``.  ``route``
    is ``route(message, backend_keys) -> key``; the default hashes the
    request's path/session for stable balancing.
    """

    def __init__(self, node, listen_port, backends, route=None,
                 parse_cost=40e-6, reply_cost=25e-6, name="proxy",
                 mode="worker"):
        if mode not in ("worker", "eventloop"):
            raise ValueError("mode must be 'worker' or 'eventloop'")
        self.node = node
        self.listen_port = listen_port
        self.backends = dict(backends)
        self.route = route or hash_route
        self.parse_cost = parse_cost
        self.reply_cost = reply_cost
        self.name = name
        self.mode = mode
        self.task = None
        self.connections = 0
        self.forwarded = 0
        self.replied = 0
        self.dropped_replies = 0
        self.per_backend = {key: 0 for key in self.backends}
        self._req_ids = count(1)

    def start(self):
        runner = self._run_workers if self.mode == "worker" else self._run_eventloop
        self.task = self.node.spawn(self.name, runner)
        return self

    # ------------------------------------------------------------------
    # worker mode
    # ------------------------------------------------------------------

    def _run_workers(self, ctx):
        lsock = yield from ctx.listen(self.listen_port)
        while True:
            sock = yield from ctx.accept(lsock)
            self.connections += 1
            ctx.spawn(
                "{}-w{}".format(self.name, self.connections), self._worker, sock
            )

    def _worker(self, ctx, client_sock):
        backend_socks = {}
        while True:
            request = yield from ctx.recv_message(client_sock)
            if request is None:
                break
            yield from ctx.compute(self.parse_cost)
            key = self.route(request, sorted(self.backends))
            sock = backend_socks.get(key)
            if sock is None:
                node_name, port = self.backends[key]
                sock = yield from ctx.connect(node_name, port)
                backend_socks[key] = sock
            self.forwarded += 1
            self.per_backend[key] += 1
            yield from ctx.send_message(
                sock, request.size, kind=request.kind, meta=request.meta
            )
            reply = yield from ctx.recv_message(sock)
            if reply is None:
                self.dropped_replies += 1
                break
            yield from ctx.compute(self.reply_cost)
            self.replied += 1
            yield from ctx.send_message(
                client_sock, reply.size, kind=reply.kind, meta=reply.meta
            )
        for sock in backend_socks.values():
            yield from ctx.close(sock)

    # ------------------------------------------------------------------
    # event-loop mode
    # ------------------------------------------------------------------

    def _run_eventloop(self, ctx):
        lsock = yield from ctx.listen(self.listen_port)
        selector = Selector(ctx)
        selector.add_listener(("accept", None), lsock)

        backend_socks = {}  # one connection per backend
        for key, (node_name, port) in self.backends.items():
            sock = yield from ctx.connect(node_name, port)
            selector.add_socket(("backend", key), sock)
            backend_socks[key] = sock

        clients = {}
        pending = {}  # proxy req id -> client id
        client_ids = count(1)

        while True:
            source, item = yield from selector.select()
            kind = source[0]
            if kind == "accept":
                client_id = next(client_ids)
                clients[client_id] = item
                self.connections += 1
                selector.add_socket(("client", client_id), item)
            elif kind == "client":
                client_id = source[1]
                if item is None:
                    selector.remove(source)
                    clients.pop(client_id, None)
                    continue
                yield from ctx.compute(self.parse_cost)
                backend_key = self.route(item, sorted(self.backends))
                req_id = next(self._req_ids)
                pending[req_id] = client_id
                meta = dict(item.meta or {})
                meta["_proxy_req"] = req_id
                sock = backend_socks[backend_key]
                self.forwarded += 1
                self.per_backend[backend_key] += 1
                yield from ctx.send_message(sock, item.size, kind=item.kind, meta=meta)
            else:  # backend response
                if item is None:
                    selector.remove(source)
                    continue
                meta = dict(item.meta or {})
                req_id = meta.pop("_proxy_req", None)
                client_id = pending.pop(req_id, None)
                client_sock = clients.get(client_id)
                if client_sock is None or client_sock.state == "closed":
                    self.dropped_replies += 1
                    continue
                yield from ctx.compute(self.reply_cost)
                self.replied += 1
                yield from ctx.send_message(
                    client_sock, item.size, kind=item.kind, meta=meta
                )

    # ------------------------------------------------------------------

    def stats(self):
        return {
            "mode": self.mode,
            "connections": self.connections,
            "forwarded": self.forwarded,
            "replied": self.replied,
            "dropped_replies": self.dropped_replies,
            "per_backend": dict(self.per_backend),
        }


def hash_route(message, backend_keys):
    """Stable hash routing on the request's path/session token."""
    meta = message.meta or {}
    token = meta.get("path") or meta.get("session") or message.msg_id
    # crc32, not hash(): Python string hashing is per-process randomized
    # and would break run-to-run determinism.
    digest = zlib.crc32(str(token).encode("utf-8"))
    return backend_keys[digest % len(backend_keys)]


def field_route(field_name):
    """Route on an explicit metadata field (Apache's URL-prefix dispatch)."""

    def route(message, backend_keys):
        meta = message.meta or {}
        target = meta.get(field_name)
        if target in backend_keys:
            return target
        digest = zlib.crc32(str(target).encode("utf-8"))
        return backend_keys[digest % len(backend_keys)]

    return route

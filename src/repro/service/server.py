"""Line-delimited JSON control-plane server and clients.

Wire format: one JSON object per ``\\n``-terminated line, UTF-8.
Requests carry ``{"v": 1, "id": N, "op": ..., "params": {...}}``;
responses echo the id with ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": ...}``.  Subscription events arrive as
unsolicited ``{"v": 1, "event": ..., "seq": n, "data": ...}`` lines
interleaved between responses (match on the ``event`` key, or on the
absent ``id``).

Threading: every connection gets a reader thread that parses lines and
forwards them through :meth:`Supervisor.submit`, which queues the
request for the supervisor thread to execute at the next slice boundary.
The supervisor never touches sockets except through per-connection
``push`` callbacks (registered by ``subscribe``), which serialize writes
under the connection's lock so event lines never interleave with
response lines.
"""

import json
import socket
import threading

from repro.service.supervisor import PROTOCOL_VERSION

#: Longest request line the server reads, in characters, far above any
#: real request.  A longer line gets one error response, and then the
#: connection closes, so no client can make the server buffer an
#: unbounded line.
MAX_LINE = 1 << 20


def encode(message):
    """One wire line for ``message`` (compact separators, no newline)."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True)


class ServiceServer:
    """TCP front-end for a :class:`~repro.service.supervisor.Supervisor`.

    Binds ``host:port`` (port 0 picks a free one — read :attr:`port`
    after construction) and serves each connection on its own thread.
    The accept loop runs on a daemon thread started by :meth:`start`;
    the supervisor itself must be pumped elsewhere (usually the main
    thread) or no request will ever complete.
    """

    def __init__(self, supervisor, host="127.0.0.1", port=0):
        self.supervisor = supervisor
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.connections = 0
        self.requests = 0
        self._conns = set()
        self._lock = threading.Lock()
        self._thread = None
        self.running = False

    @property
    def address(self):
        return "{}:{}".format(self.host, self.port)

    def start(self):
        if self.running:
            return self
        self.running = True
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self.running = False
        try:
            # On Linux, close() alone does not wake a blocked accept().
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _accept_loop(self):
        while self.running:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = _Connection(self, sock)
            with self._lock:
                self._conns.add(conn)
            self.connections += 1
            threading.Thread(
                target=conn.reader_loop, name="repro-serve-conn", daemon=True
            ).start()

    def _forget(self, conn):
        with self._lock:
            self._conns.discard(conn)


class _Connection:
    """One client socket: a reader thread plus a write lock shared with
    the supervisor's event pushes."""

    def __init__(self, server, sock):
        self.server = server
        self.sock = sock
        self._wlock = threading.Lock()
        self._closed = False

    def send(self, message):
        line = (encode(message) + "\n").encode("utf-8")
        with self._wlock:
            self.sock.sendall(line)

    def push(self, event):
        """Supervisor-side event delivery; raising unsubscribes us."""
        if self._closed:
            raise ConnectionError("connection closed")
        self.send(event)

    def reader_loop(self):
        try:
            buffer = self.sock.makefile("r", encoding="utf-8", newline="\n")
            while True:
                line = buffer.readline(MAX_LINE + 1)
                if not line:
                    break
                if len(line) > MAX_LINE and not line.endswith("\n"):
                    self.send({
                        "v": PROTOCOL_VERSION, "ok": False,
                        "error": "request line longer than {} characters".format(
                            MAX_LINE),
                    })
                    break
                line = line.strip()
                if not line:
                    continue
                self._serve_line(line)
        except (OSError, ValueError):
            pass
        finally:
            self.close()

    def _serve_line(self, line):
        try:
            request = json.loads(line)
        except ValueError:
            self.send({
                "v": PROTOCOL_VERSION, "ok": False,
                "error": "invalid JSON: {!r}".format(line[:80]),
            })
            return
        if isinstance(request, dict) and request.get("op") == "subscribe":
            # Socket subscribers stream: wire this connection up as the
            # push callback so boundary flushes write straight to us.  The
            # supervisor answers params that are not an object.
            params = request.get("params") or {}
            if isinstance(params, dict):
                request = dict(request, params=dict(params, _push=self.push))
        self.server.requests += 1
        response = self.server.supervisor.submit(request)
        self.send(response)

    def close(self):
        if self._closed:
            return
        self._closed = True
        self.server._forget(self)
        try:
            self.sock.close()
        except OSError:
            pass


class ServiceClient:
    """In-process client: calls :meth:`Supervisor.handle` directly.

    Meant for the thread that owns the supervisor, *between* pumps —
    exactly the slice-boundary window where controls are legal.  Query
    and control helpers mirror the wire ops one-to-one, raise
    :class:`ServiceCallError` on ``ok: false``, and return the bare
    ``result``.
    """

    def __init__(self, supervisor):
        self.supervisor = supervisor
        self._next_id = 0

    def call(self, op, **params):
        self._next_id += 1
        response = self.supervisor.handle({
            "v": PROTOCOL_VERSION, "id": self._next_id,
            "op": op, "params": params,
        })
        if not response.get("ok"):
            raise ServiceCallError(response.get("error", "request failed"))
        return response["result"]

    # Conveniences for the common ops; anything else goes via call().
    def ping(self):
        return self.call("ping")

    def status(self):
        return self.call("status")

    def metrics(self, pattern=None):
        return self.call("metrics", pattern=pattern)

    def sketch(self, request_class, **kwargs):
        return self.call("sketch", **{"class": request_class, **kwargs})

    def ledger(self, node=None):
        return self.call("ledger", node=node)

    def alerts(self, limit=20):
        return self.call("alerts", limit=limit)

    def subscribe(self, events=None):
        return self.call("subscribe", events=events)["sub"]

    def poll(self, sub):
        return self.call("poll", sub=sub)["events"]

    def inject_fault(self, events, base=None):
        return self.call("inject_fault", events=events, base=base)

    def shutdown(self):
        return self.call("shutdown")


class ServiceCallError(Exception):
    """An ``ok: false`` response surfaced client-side."""


class SocketClient:
    """Blocking TCP client for tests and scripting.

    :meth:`call` sends one request and reads until the matching response
    id arrives; event lines read along the way are buffered in
    :attr:`events` (also extended by :meth:`read_event`).
    """

    def __init__(self, host, port, timeout=30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self._next_id = 0
        self.events = []

    def _read_message(self):
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, op, **params):
        self._next_id += 1
        request = {
            "v": PROTOCOL_VERSION, "id": self._next_id,
            "op": op, "params": params,
        }
        self.sock.sendall((encode(request) + "\n").encode("utf-8"))
        while True:
            message = self._read_message()
            if message.get("id") == self._next_id:
                if not message.get("ok"):
                    raise ServiceCallError(message.get("error", "request failed"))
                return message["result"]
            if "event" in message:
                self.events.append(message)

    def read_event(self, timeout=None):
        """Block for the next unsolicited event line (or a buffered one)."""
        if self.events:
            return self.events.pop(0)
        if timeout is not None:
            self.sock.settimeout(timeout)
        message = self._read_message()
        if "event" not in message:
            raise ServiceCallError(
                "expected an event, got: {!r}".format(message)
            )
        return message

    def close(self):
        try:
            self._file.close()
        finally:
            try:
                self.sock.close()
            except OSError:
                pass

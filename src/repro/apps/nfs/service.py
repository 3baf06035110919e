"""Assembly of the full virtual storage service (paper Figure 3).

"The back-end storage servers are hidden from the client's view by a
user-level proxy that interposes every request from the client to the
server."  Clients mount the proxy; the proxy forwards each call to one
of the back-end NFS servers (stable hash on the file path, so one file's
traffic stays on one backend).
"""

from repro.apps.common.proxy import ForwardingProxy
from repro.apps.nfs import protocol
from repro.apps.nfs.server import NfsServer


class VirtualStorageService:
    """Builds the proxy + backends on an existing cluster.

    ``proxy_node`` is the interposer; ``backend_nodes`` must have disks.
    """

    def __init__(self, cluster, proxy_node, backend_nodes,
                 port=protocol.NFS_PORT, proxy_parse_cost=40e-6,
                 proxy_reply_cost=25e-6):
        self.cluster = cluster
        self.proxy_node_name = proxy_node
        self.backend_node_names = list(backend_nodes)
        self.port = port
        self.servers = {}
        for name in self.backend_node_names:
            node = cluster.node(name)
            if node.kernel.vfs is None:
                raise ValueError("backend node {} needs with_disk=True".format(name))
            self.servers[name] = NfsServer(
                node, port=port, name="nfsd-{}".format(name)
            )
        self.proxy = ForwardingProxy(
            cluster.node(proxy_node),
            listen_port=port,
            backends={name: (name, port) for name in self.backend_node_names},
            parse_cost=proxy_parse_cost,
            reply_cost=proxy_reply_cost,
            name="nfs-proxy",
        )

    def start(self):
        for server in self.servers.values():
            server.start()
        self.proxy.start()
        return self

    def stats(self):
        return {
            "proxy": self.proxy.stats(),
            "servers": {name: server.stats() for name, server in self.servers.items()},
        }

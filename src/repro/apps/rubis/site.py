"""Assembly of the RUBiS multi-tier site.

client node  ->  apache (front-end router)  ->  servlet1/servlet2  ->  db

"Apache server was configured to multiplex the requests to the different
backend server depending on these prefixes" — the front-end routes on the
``servlet`` metadata field the client-side scheduler stamps on each
request (the paper's URL-prefix trick).
"""

from repro.apps.common.proxy import ForwardingProxy, field_route
from repro.apps.rubis.db import DbServer
from repro.apps.rubis.servlet import SERVLET_PORT, ServletServer

HTTP_PORT = 80


class RubisSite:
    """Builds apache + servlet tier + db on an existing cluster."""

    def __init__(self, cluster, apache_node, servlet_nodes, db_node,
                 http_port=HTTP_PORT):
        self.cluster = cluster
        self.apache_node_name = apache_node
        self.servlet_node_names = list(servlet_nodes)
        self.db_node_name = db_node
        self.http_port = http_port
        self.db = DbServer(cluster.node(db_node))
        self.servlets = {
            name: ServletServer(cluster.node(name), db_node)
            for name in self.servlet_node_names
        }
        self.apache = ForwardingProxy(
            cluster.node(apache_node),
            listen_port=http_port,
            backends={name: (name, SERVLET_PORT) for name in self.servlet_node_names},
            route=field_route("servlet"),
            parse_cost=35e-6,
            reply_cost=20e-6,
            name="apache",
            mode="worker",
        )
        self._load_tasks = []

    def start(self):
        self.db.start()
        for servlet in self.servlets.values():
            servlet.start()
        self.apache.start()
        return self

    # ------------------------------------------------------------------

    def inject_cpu_load(self, servlet_node, start, duration, duty=0.75):
        """Schedule a CPU hog on one servlet node (the mid-run perturbation).

        The hog alternates 5 ms of CPU with idle time to hold average
        utilization at ``duty``.  It runs in the kernel band —
        higher-priority background load that genuinely steals capacity
        from the servlet's user-level handlers (a user-band hog would
        simply be round-robin fair-shared away).
        """
        from repro.ossim.task import BAND_KERNEL

        node = self.cluster.node(servlet_node)
        chunk = 5e-3

        def hog(ctx):
            yield from ctx.sleep(max(0.0, start - ctx.now))
            end = ctx.now + duration
            idle = chunk * (1.0 - duty) / duty
            while ctx.now < end:
                yield from ctx.kcompute(chunk)
                yield from ctx.sleep(idle)
            return "hog-done"

        task = node.spawn("batch-load", hog, band=BAND_KERNEL)
        self._load_tasks.append(task)
        return task

    def stats(self):
        return {
            "apache": self.apache.stats(),
            "servlets": {name: servlet.stats() for name, servlet in self.servlets.items()},
            "db": self.db.stats(),
        }

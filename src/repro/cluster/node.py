"""Nodes and the cluster builder."""

from repro.netsim.fabric import Fabric
from repro.ossim.costs import DEFAULT_COSTS
from repro.ossim.kernel import Kernel
from repro.ossim.task import BAND_USER
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.cluster.clock import NodeClock


class Node:
    """One machine: kernel + CPU + NIC (+ optional disk) + local clock."""

    def __init__(self, cluster, name, costs=None, clock=None, with_disk=False,
                 cache_pages=8192, ip=None, cpus=1, switch=None):
        self.cluster = cluster
        self.name = name
        self.costs = costs or cluster.costs
        self.clock = clock or NodeClock()
        self.kernel = Kernel(
            cluster.sim, name, self.costs, clock=self.clock, cpus=cpus
        )
        self.kernel.cluster = cluster
        nic = cluster.fabric.create_nic(ip=ip, switch=switch)
        self.kernel.attach_nic(nic)
        if with_disk:
            self.kernel.attach_disk(cache_pages=cache_pages)

    @property
    def ip(self):
        return self.kernel.ip

    @property
    def sim(self):
        return self.cluster.sim

    def spawn(self, name, fn, *args, band=BAND_USER, labels=None, affinity=None):
        return self.kernel.spawn(
            name, fn, *args, band=band, labels=labels, affinity=affinity
        )

    def local_time(self):
        return self.clock.local_time(self.sim.now)

    def crash(self, reason="crash"):
        """Hard-stop the machine: every task dies and every connection
        resets, as a power failure would.  Restart is application-level —
        respawn whatever services the experiment needs back up."""
        self.kernel.crash(reason)

    def __repr__(self):
        return "<Node {} ip={}>".format(self.name, self.ip)


class Cluster:
    """A LAN of simulated machines sharing one switch.

    >>> cluster = Cluster(seed=1)
    >>> a = cluster.add_node("alpha")
    >>> b = cluster.add_node("beta", with_disk=True)
    """

    def __init__(self, seed=7, bandwidth_bps=1_000_000_000, costs=None,
                 loss_rate=0.0):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.costs = costs or DEFAULT_COSTS
        self.fabric = Fabric(
            self.sim,
            bandwidth_bps=bandwidth_bps,
            loss_rate=loss_rate,
            rng=self.streams.stream("fabric.loss") if loss_rate else None,
        )
        self.nodes = {}
        self._by_ip = {}

    def add_node(self, name, **kwargs):
        if name in self.nodes:
            raise ValueError("duplicate node name: {}".format(name))
        node = Node(self, name, **kwargs)
        self.nodes[name] = node
        self._by_ip[node.ip] = node
        return node

    def add_nodes(self, names, **kwargs):
        """Batch-create many identical nodes (shared kwargs, one loop).

        Returns the new nodes in input order.  This is the many-node
        construction path: one shared costs/config object, no per-node
        keyword re-validation.
        """
        nodes = []
        add = self.add_node
        for name in names:
            nodes.append(add(name, **kwargs))
        return nodes

    def node(self, name):
        return self.nodes[name]

    def resolve(self, name_or_ip):
        """Kernel for a node name or IP address."""
        node = self.nodes.get(name_or_ip) or self._by_ip.get(name_or_ip)
        if node is None:
            raise KeyError("unknown node or IP: {}".format(name_or_ip))
        return node.kernel

    def node_for_ip(self, ip):
        return self._by_ip[ip]

    def one_way_latency(self, src_ip=None, dst_ip=None):
        """Uplink + switch forwarding + downlink.

        With endpoint IPs the fabric computes the hop-aware path latency
        (identical to the flat constant when both share a switch); without
        them, the flat-LAN constant is returned for back-compat.
        """
        if src_ip is not None and dst_ip is not None:
            return self.fabric.path_latency(src_ip, dst_ip)
        return 2.0 * self.fabric.latency + self.fabric.switch.forward_delay

    def run(self, until=None):
        self.sim.run(until=until)

    def __repr__(self):
        return "<Cluster {} nodes>".format(len(self.nodes))

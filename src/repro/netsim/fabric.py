"""Cluster network fabric: names, addresses, and the LAN topology."""

from repro.netsim.packet import Address
from repro.netsim.nic import Nic
from repro.netsim.switch import Switch


class Fabric:
    """The LAN connecting a cluster's nodes.

    The default shape is a single switch (the original flat LAN).  For
    spine/leaf clusters, :meth:`add_switch` stamps out leaf switches
    trunked to the root switch (which then plays the spine role), and
    :meth:`create_nic` takes a ``switch=`` argument to place a NIC behind
    a specific leaf.  Responsible for IP assignment and NIC creation.
    Experiments ask the fabric for link statistics (utilization,
    queueing) to report network health alongside SysProf's own
    measurements.
    """

    #: The LAN's name; its root switch is ``lan0-sw``.
    name = "lan0"

    def __init__(self, sim, bandwidth_bps=1_000_000_000, latency=50e-6,
                 loss_rate=0.0, rng=None):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.loss_rate = loss_rate
        self._rng = rng
        self.switch = Switch(
            sim, bandwidth_bps, latency, loss_rate=loss_rate, rng=rng,
            name="{}-sw".format(self.name),
        )
        self.switches = {self.switch.name: self.switch}
        self._next_host = 1
        self.nics = {}
        self._switch_of = {}  # ip -> the switch its NIC hangs off

    def allocate_ip(self):
        ip = "10.0.0.{}".format(self._next_host)
        self._next_host += 1
        return ip

    def add_switch(self, name):
        """Create a leaf switch trunked up to the root switch, with the
        fabric's bandwidth and latency on its ports and its trunk.

        Returns the new switch; pass it to :meth:`create_nic` via
        ``switch=`` to place NICs behind it.
        """
        if name in self.switches:
            raise ValueError("duplicate switch name: {}".format(name))
        sw = Switch(
            self.sim, self.bandwidth_bps, self.latency,
            forward_delay=self.switch.forward_delay,
            loss_rate=self.loss_rate, rng=self._rng, name=name,
        )
        sw.connect(self.switch)
        self.switches[name] = sw
        return sw

    def create_nic(self, ip=None, switch=None):
        """Create a NIC, attach it to a switch, and return it."""
        ip = ip or self.allocate_ip()
        if ip in self.nics:
            raise ValueError("duplicate IP on fabric: {}".format(ip))
        sw = switch or self.switch
        nic = Nic(self.sim, ip)
        sw.attach(nic)
        self.nics[ip] = nic
        self._switch_of[ip] = sw
        return nic

    def switch_of(self, ip):
        """The switch whose port serves ``ip`` (root switch if unknown)."""
        return self._switch_of.get(ip, self.switch)

    def address(self, ip, port):
        return Address(ip, port)

    def path_latency(self, src_ip, dst_ip):
        """One-way propagation + forwarding latency between two IPs.

        For a flat fabric this is the classic ``2·latency + forward_delay``
        (NIC→switch, switch forward, switch→NIC).  Across a switch tree it
        sums each hop's trunk latency and per-switch forwarding delay up
        to the lowest common ancestor and back down.
        """
        s_src = self.switch_of(src_ip)
        s_dst = self.switch_of(dst_ip)
        if s_src is s_dst:
            return 2.0 * s_src.latency + s_src.forward_delay
        chain_src = [s_src]
        sw = s_src
        while sw.parent is not None:
            sw = sw.parent
            chain_src.append(sw)
        chain_dst = [s_dst]
        sw = s_dst
        while sw.parent is not None:
            sw = sw.parent
            chain_dst.append(sw)
        depth_src = {id(s): i for i, s in enumerate(chain_src)}
        lca_down = next(
            (i for i, s in enumerate(chain_dst) if id(s) in depth_src), None)
        if lca_down is None:
            raise ValueError("no path between {} and {}".format(src_ip, dst_ip))
        lca = chain_dst[lca_down]
        lca_up = depth_src[id(lca)]
        total = s_src.latency + s_dst.latency + lca.forward_delay
        for sw in chain_src[:lca_up]:
            total += sw.forward_delay + sw.uplink_latency
        for sw in chain_dst[:lca_down]:
            total += sw.forward_delay + sw.uplink_latency
        return total

    # -- failure injection hooks ----------------------------------------

    def set_link_admin(self, ip, up):
        """Raise/lower both directions of the port serving ``ip``."""
        self.switch_of(ip).set_port_admin(ip, up)

    def link_admin(self, ip):
        return self.switch_of(ip).port_admin(ip)

    def partition(self, *groups):
        """Partition the fabric into isolated IP groups; see Switch.partition.

        The mapping is applied to every switch so cross-group packets are
        dropped at the first hop regardless of which leaf they enter.
        """
        for sw in self.switches.values():
            sw.partition(*groups)

    def heal(self):
        for sw in self.switches.values():
            sw.heal()

    def reachable(self, src_ip, dst_ip):
        """Whether a packet from ``src_ip`` can currently reach ``dst_ip``.

        Consulted by connection establishment (the handshake is simulated
        as a latency wait, not wire packets, so it must ask the fabric
        instead of discovering the outage the hard way).
        """
        if src_ip == dst_ip:
            return True
        if self.switch.crosses_partition(src_ip, dst_ip):
            return False
        for ip in (src_ip, dst_ip):
            if ip in self.nics and not self.switch_of(ip).port_admin(ip):
                return False
        return True

    def stats(self):
        forwarded = sum(sw.forwarded for sw in self.switches.values())
        unroutable = sum(sw.unroutable for sw in self.switches.values())
        dropped = sum(sw.partition_dropped for sw in self.switches.values())
        return {
            "forwarded": forwarded,
            "unroutable": unroutable,
            "partition_dropped": dropped,
            "switches": len(self.switches),
            "ports": {
                ip: self._switch_of[ip].port_stats(ip) for ip in self.nics
            },
        }

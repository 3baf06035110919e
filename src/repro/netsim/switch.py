"""Output-queued Ethernet-like switch."""

from repro.netsim.link import Link


class Switch:
    """A store-and-forward switch with per-output-port serialization.

    Each attached NIC gets an uplink (NIC → switch, owned by the NIC's TX
    pump) and a downlink (switch → NIC, owned by the switch).  Forwarding
    looks up the destination IP and enqueues on that port's downlink; the
    downlink's queue is where receive-side congestion forms.

    Switches compose into spine/leaf trees via :meth:`connect`: a trunk
    link pair joins two switches, remote IPs learned from children are
    advertised up the tree, and anything still unknown rides the
    ``default_route`` toward the uplink.  Every forwarding decision is a
    constant number of dict lookups regardless of port or switch count.
    """

    def __init__(self, sim, bandwidth_bps, latency, forward_delay=5e-6, name="sw0",
                 loss_rate=0.0, rng=None):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.forward_delay = forward_delay
        self.name = name
        self.loss_rate = loss_rate
        self._rng = rng
        self._downlinks = {}  # ip -> Link towards that NIC
        self._uplinks = {}  # ip -> Link from that NIC into the switch
        self._routes = {}  # remote ip -> trunk Link toward the owning switch
        self._trunks = {}  # peer switch name -> trunk Link to that peer
        self._partition = {}  # ip -> group index; unmapped ips are unrestricted
        self.parent = None  # uplink peer switch, when part of a tree
        self.uplink_latency = 0.0  # one-way latency of the trunk to the parent
        self.default_route = None  # trunk Link used for unknown destinations
        self.forwarded = 0
        self.unroutable = 0
        self.partition_dropped = 0

    def attach(self, nic):
        """Attach a NIC on a port with the switch's bandwidth and latency."""
        bw = self.bandwidth_bps
        lat = self.latency
        downlink = Link(
            self.sim, bw, lat, nic.receive,
            loss_rate=self.loss_rate, rng=self._rng,
            name="{}->{}".format(self.name, nic.ip),
        )
        uplink = Link(
            self.sim, bw, lat, self._forward,
            loss_rate=self.loss_rate, rng=self._rng,
            name="{}->{}".format(nic.ip, self.name),
        )
        self._downlinks[nic.ip] = downlink
        self._uplinks[nic.ip] = uplink
        nic.attach(uplink)
        self._advertise(nic.ip)
        return downlink

    def connect(self, peer, uplink=True):
        """Trunk this switch to ``peer`` with a bidirectional link pair of
        this switch's bandwidth and latency.

        With ``uplink=True`` (the default) ``peer`` becomes this switch's
        parent: unknown destinations follow the trunk up, and every IP
        already attached below this switch is advertised up the tree so
        descent stays a single dict hit at each hop.
        """
        bw = self.bandwidth_bps
        lat = self.latency
        to_peer = Link(
            self.sim, bw, lat, peer._forward,
            loss_rate=self.loss_rate, rng=self._rng,
            name="{}=>{}".format(self.name, peer.name),
        )
        to_self = Link(
            self.sim, bw, lat, self._forward,
            loss_rate=peer.loss_rate, rng=peer._rng,
            name="{}=>{}".format(peer.name, self.name),
        )
        self._trunks[peer.name] = to_peer
        peer._trunks[self.name] = to_self
        if uplink:
            if self.parent is not None:
                raise ValueError("switch {} already has an uplink".format(self.name))
            self.parent = peer
            self.uplink_latency = lat
            self.default_route = to_peer
        for ip in list(self._downlinks):
            self._advertise(ip)
        for ip in list(self._routes):
            self._advertise(ip)
        return to_peer

    def _advertise(self, ip):
        """Teach every ancestor switch which trunk leads back to ``ip``."""
        child, parent = self, self.parent
        while parent is not None:
            parent._routes[ip] = parent._trunks[child.name]
            child, parent = parent, parent.parent

    def set_port_admin(self, ip, up):
        """Raise/lower both directions of the port serving ``ip``."""
        if ip not in self._downlinks:
            raise KeyError("no port for ip {}".format(ip))
        self._downlinks[ip].set_admin(up)
        self._uplinks[ip].set_admin(up)

    def port_admin(self, ip):
        """True when both directions of the port serving ``ip`` are up."""
        return self._downlinks[ip].admin_up and self._uplinks[ip].admin_up

    def partition(self, *groups):
        """Split attached IPs into isolated groups (cross-group drops).

        Each argument is an iterable of IPs forming one side.  IPs left
        out of every group keep full connectivity — so a management node
        can still see both halves of a split, as in the real incidents
        the paper diagnoses.
        """
        mapping = {}
        for index, group in enumerate(groups):
            for ip in group:
                if ip in mapping:
                    raise ValueError("ip {} in more than one group".format(ip))
                mapping[ip] = index
        self._partition = mapping

    def heal(self):
        """Remove any active partition."""
        self._partition = {}

    def crosses_partition(self, src_ip, dst_ip):
        """True when a packet between the two IPs would be dropped."""
        if not self._partition:
            return False
        src_group = self._partition.get(src_ip)
        dst_group = self._partition.get(dst_ip)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    def _forward(self, packet):
        dst_ip = packet.dst.ip
        out = self._downlinks.get(dst_ip)
        if out is None:
            out = self._routes.get(dst_ip) or self.default_route
        if out is None:
            self.unroutable += 1
            return
        if self.crosses_partition(packet.src.ip, packet.dst.ip):
            self.partition_dropped += 1
            return
        self.forwarded += 1
        if self.forward_delay:
            self.sim.schedule(self.forward_delay, out.transmit, packet)
        else:
            out.transmit(packet)

    def port_stats(self, ip):
        """TX/queue statistics for the downlink serving ``ip``."""
        link = self._downlinks[ip]
        return {
            "tx_packets": link.tx_packets,
            "tx_bytes": link.tx_bytes,
            "queued": link.queue_depth,
            "busy_time": link.busy_time,
        }

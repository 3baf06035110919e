"""Spine/leaf topology builders for many-node clusters.

The paper's testbed is two machines on one LAN; the federation work
(ROADMAP item 1) needs hundreds.  :class:`RackBuilder` stamps out one
rack — a leaf switch, M monitored nodes, and optionally a rack-local
zone-GPA node — and :func:`build_spine_leaf` composes N racks behind the
fabric's root switch (playing the spine role) plus a management node for
the root GPA.  Construction is batched: one shared kwargs dict per rack,
no per-node keyword re-validation, so a 256-node cluster builds in
milliseconds.
"""

from dataclasses import dataclass, field


@dataclass
class RackSpec:
    """Names that make up one built rack."""

    name: str
    switch_name: str
    nodes: list = field(default_factory=list)
    gpa_node: str = ""


class RackTopology:
    """A built spine/leaf cluster: rack specs plus lookup helpers."""

    def __init__(self, cluster, racks, mgmt_node=""):
        self.cluster = cluster
        self.racks = racks  # list of RackSpec
        self.mgmt_node = mgmt_node
        cluster.topology = self

    @property
    def node_names(self):
        """All monitored (non-GPA) node names across racks, rack order."""
        return [name for rack in self.racks for name in rack.nodes]

    def rack_of(self, node_name):
        for rack in self.racks:
            if node_name in rack.nodes or node_name == rack.gpa_node:
                return rack
        raise KeyError("node {} not in any rack".format(node_name))

    def stats(self):
        return {
            "racks": len(self.racks),
            "nodes": sum(len(rack.nodes) for rack in self.racks),
            "rack_gpas": sum(1 for rack in self.racks if rack.gpa_node),
            "switches": len(self.cluster.fabric.switches),
        }


class RackBuilder:
    """Stamps one rack: leaf switch + M nodes (+ optional rack GPA node)."""

    def __init__(self, cluster, name):
        self.cluster = cluster
        self.name = name
        self.switch = cluster.fabric.add_switch("{}-leaf".format(name))

    def build(self, node_count, with_gpa=True, node_prefix=None, **node_kwargs):
        """Create ``node_count`` nodes behind this rack's leaf switch.

        ``node_kwargs`` are shared across the whole rack (batched
        construction).  Returns a :class:`RackSpec`.
        """
        prefix = node_prefix or self.name
        names = ["{}n{}".format(prefix, i) for i in range(node_count)]
        self.cluster.add_nodes(names, switch=self.switch, **node_kwargs)
        spec = RackSpec(name=self.name, switch_name=self.switch.name,
                        nodes=names)
        if with_gpa:
            spec.gpa_node = "{}gpa".format(prefix)
            self.cluster.add_node(spec.gpa_node, switch=self.switch)
        return spec


def build_spine_leaf(cluster, racks, nodes_per_rack, with_rack_gpa=True,
                     mgmt_node="mgmt", **node_kwargs):
    """Build an N-rack × M-node spine/leaf cluster on ``cluster``.

    The fabric's root switch is the spine; each rack hangs a leaf switch
    off it.  ``mgmt_node`` (root GPA host) attaches directly to the
    spine.  Returns a :class:`RackTopology`.
    """
    specs = []
    for r in range(racks):
        builder = RackBuilder(cluster, "r{}".format(r))
        specs.append(builder.build(nodes_per_rack, with_gpa=with_rack_gpa,
                                   **node_kwargs))
    mgmt = ""
    if mgmt_node:
        cluster.add_node(mgmt_node)
        mgmt = mgmt_node
    return RackTopology(cluster, specs, mgmt_node=mgmt)

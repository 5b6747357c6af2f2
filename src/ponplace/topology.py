"""Layered IoT-over-PON network instances.

Builds the concrete graph one experiment runs on: IoT objects, relays, a
coordinator and a gateway per IoT network, one ONU per network and a single
OLT shared by all networks.  Adjacency is directed and uplink-only; objects
never receive traffic and the OLT never transmits.
"""

from __future__ import annotations

import csv
import enum
import math
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    """Inconsistent or unsupported topology configuration."""


def type_rule(default, value) -> str | None:
    """What a value of the field whose default is ``default`` must be, if
    ``value`` is not one: of the default's type exactly, where an ``int``
    may stand for a ``float``, and finite if a number."""
    kind = type(default)
    if kind is float:
        # Not math.isfinite, which overflows on an int beyond float range.
        finite = (type(value) in (int, float)
                  and abs(value) <= sys.float_info.max)
        return None if finite else "a finite number"
    if type(value) is kind:
        return None
    if default is None:  # coordinator_xy
        pair = (type(value) is tuple and len(value) == 2
                and not any(type_rule(0.0, v) for v in value))
        return None if pair else "None or a pair of finite numbers"
    return ("true or false" if kind is bool else "an integer" if kind is int
            else f"a {kind.__name__}" if isinstance(default, enum.Enum)
            else None)


def check_types(record, section: str, error: type = ConfigError) -> None:
    """Refuse a field of ``record`` that breaks its ``type_rule``."""
    for f in fields(record):
        value = getattr(record, f.name)
        if rule := type_rule(f.default, value):
            raise error(f"{section}.{f.name} is {value!r}; it must be {rule}")


class LayerKind(enum.Enum):
    OBJECT = "object"
    RELAY = "relay"
    COORDINATOR = "coordinator"
    GATEWAY = "gateway"
    ONU = "onu"
    OLT = "olt"


class Medium(enum.Enum):
    WIRELESS = "wireless"
    ETHERNET = "ethernet"
    FIBER = "fiber"


class RelayLayout(enum.Enum):
    #: Uniform square grid; relay count must be a perfect square.
    GRID = "grid"
    #: Evenly spaced along the horizontal mid-line; any count.  Used by
    #: small test instances whose relay count is not a perfect square.
    LINE = "line"


#: network_id of the OLT, which belongs to no IoT network.
OLT_NETWORK_ID = -1


@dataclass(frozen=True)
class Node:
    id: int
    layer: LayerKind
    network_id: int
    x: float
    y: float


@dataclass(frozen=True)
class TopologyConfig:
    """Generation parameters.  Defaults reproduce the evaluated setup:
    2 IoT networks of 50 objects / 25 relays / 1 coordinator / 1 gateway /
    1 ONU in a 30 m square with 6 m relay spacing, plus a single OLT."""

    networks: int = 2
    objects_per_network: int = 50
    relays_per_network: int = 25
    area_side_m: float = 30.0
    relay_spacing_m: float = 6.0
    gateway_coordinator_distance_m: float = 100.0
    rng_seed: int = 7
    vm_types: int = 4
    relay_layout: RelayLayout = RelayLayout.GRID
    #: Override for the coordinator position; defaults to the area center.
    coordinator_xy: tuple[float, float] | None = None

    def __post_init__(self):
        """Refuse a value of the wrong type or out of range."""
        check_types(self, "topology")
        k = self.relays_per_network
        grid = k > 0 and self.relay_layout is RelayLayout.GRID
        n = math.isqrt(max(k, 0))
        for key, bad, rule in (
                ("networks", self.networks < 1, "at least 1"),
                ("objects_per_network", self.objects_per_network < 0,
                 "at least 0"),
                ("relays_per_network", k < 0, "at least 0"),
                ("vm_types", self.vm_types < 1, "at least 1"),
                ("area_side_m", self.area_side_m <= 0, "> 0"),
                ("gateway_coordinator_distance_m",
                 self.gateway_coordinator_distance_m < 0, ">= 0"),
                ("relay_spacing_m", self.relay_spacing_m < 0, ">= 0"),
                ("relays_per_network", self.objects_per_network > 0 and k == 0,
                 "at least 1 for objects to reach the OLT"),
                ("relays_per_network", grid and n * n != k,
                 "a perfect square in the grid layout"),
                ("relay_spacing_m",
                 grid and (n - 1) * self.relay_spacing_m > self.area_side_m,
                 f"small enough for a {n} x {n} relay grid to fit in "
                 f"area_side_m {self.area_side_m!r}")):
            if bad:
                raise ConfigError(f"topology.{key} is {getattr(self, key)!r}; "
                                  f"it must be {rule}")


class NetworkInstance:
    """Node/link graph plus per-object VM requests.  ``route_tables`` and
    ``link_energies`` fill on first use and route lookups advance kept
    searches: calls from one thread share an instance safely, threads must
    not, and each ``sweep --jobs`` worker has its own copy.  ``links`` maps
    each directed link ``(src, dst)``, in build order, to its ``(medium,
    distance_m)``; only wireless links pay the amplifier term.

    ``candidates`` are the nodes that may host a cloudlet, every node but
    the objects, ascending.  A cloudlet below the OLT serves only its own
    IoT network: ``serving[net]`` holds the candidates of ``net`` plus the
    OLT, ascending."""

    def __init__(self, config: TopologyConfig, nodes: list[Node],
                 links: dict[tuple[int, int], tuple[Medium, float]],
                 vm_request: dict[int, int]):
        self.config = config
        self.nodes = tuple(nodes)
        self.links = dict(links)
        self.vm_request = dict(vm_request)
        #: IoT network ids, ascending; the OLT belongs to none of them.
        self.networks = tuple(sorted({n.network_id for n in nodes}
                                     - {OLT_NETWORK_ID}))
        self.nodes_by_layer: dict[LayerKind, list[Node]] = {k: [] for k in LayerKind}
        for n in nodes:
            self.nodes_by_layer[n.layer].append(n)
        self.candidates = tuple(n.id for n in self.nodes
                                if n.layer is not LayerKind.OBJECT)
        self.serving = {net: tuple(c for c in self.candidates
                                   if self.network_of(c)
                                   in (net, OLT_NETWORK_ID))
                        for net in self.networks}
        #: ``EnergyParams`` -> route table, filled by ``ponplace.routing``.
        self.route_tables: dict = {}
        #: ``EnergyParams`` -> link energies, filled by ``ponplace.power``.
        self.link_energies: dict = {}

    def layer(self, node_id: int) -> LayerKind:
        return self.nodes[node_id].layer

    def network_of(self, node_id: int) -> int:
        return self.nodes[node_id].network_id

    @property
    def olt_id(self) -> int:
        return self.nodes_by_layer[LayerKind.OLT][0].id

    def objects(self) -> list[int]:
        return [n.id for n in self.nodes_by_layer[LayerKind.OBJECT]]


def _relay_positions(config: TopologyConfig) -> list[tuple[float, float]]:
    k = config.relays_per_network
    side = config.area_side_m
    if config.relay_layout is RelayLayout.GRID:
        n = math.isqrt(k)
        offset = (side - (n - 1) * config.relay_spacing_m) / 2.0
        return [(offset + i * config.relay_spacing_m,
                 offset + j * config.relay_spacing_m)
                for j in range(n) for i in range(n)]
    # LINE: evenly spaced on the horizontal mid-line.
    return [((i + 0.5) * side / k, side / 2.0) for i in range(k)]


def build_instance(config: TopologyConfig) -> NetworkInstance:
    """Generate a deterministic instance from ``config``.

    Objects are placed uniformly at random (seeded) in the square area,
    relays per the configured layout, the coordinator at the area center
    (unless overridden).  Gateway/ONU/OLT carry no physical position: their
    link distances do not enter any cost term and are stored as 0.  The
    i-th object of each network requests VM type ``i % vm_types``.
    """
    relay_xy = _relay_positions(config)
    rng = random.Random(config.rng_seed)
    coord_xy = config.coordinator_xy or (config.area_side_m / 2.0,
                                         config.area_side_m / 2.0)

    nodes: list[Node] = []
    links: dict[tuple[int, int], tuple[Medium, float]] = {}
    vm_request: dict[int, int] = {}
    onu_ids: list[int] = []

    def add_node(layer, network_id, x=math.nan, y=math.nan) -> int:
        nid = len(nodes)
        nodes.append(Node(nid, layer, network_id, x, y))
        return nid

    for net in range(config.networks):
        obj_ids = []
        for _ in range(config.objects_per_network):
            x = rng.uniform(0.0, config.area_side_m)
            y = rng.uniform(0.0, config.area_side_m)
            obj_ids.append(add_node(LayerKind.OBJECT, net, x, y))
        relay_ids = [add_node(LayerKind.RELAY, net, x, y) for x, y in relay_xy]
        coord = add_node(LayerKind.COORDINATOR, net, *coord_xy)
        gateway = add_node(LayerKind.GATEWAY, net)
        onu = add_node(LayerKind.ONU, net)
        onu_ids.append(onu)

        for o in obj_ids:
            for r in relay_ids:
                links[o, r] = Medium.WIRELESS, _dist(nodes[o], nodes[r])
        for r1 in relay_ids:
            for r2 in relay_ids:
                if r1 != r2:
                    links[r1, r2] = Medium.WIRELESS, _dist(nodes[r1], nodes[r2])
            links[r1, coord] = Medium.WIRELESS, _dist(nodes[r1], nodes[coord])
        links[coord, gateway] = (Medium.WIRELESS,
                                 config.gateway_coordinator_distance_m)
        links[gateway, onu] = Medium.ETHERNET, 0.0

        for i, o in enumerate(obj_ids):
            vm_request[o] = i % config.vm_types

    olt = add_node(LayerKind.OLT, OLT_NETWORK_ID)
    for onu in onu_ids:
        links[onu, olt] = Medium.FIBER, 0.0

    return NetworkInstance(config, nodes, links, vm_request)


def _dist(a: Node, b: Node) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def write_csv(instance: NetworkInstance, out_dir: str | Path) -> None:
    """Export the instance as ``nodes.csv`` / ``edges.csv`` in ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "nodes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "layer", "network", "x", "y", "vm_request"])
        for n in instance.nodes:
            w.writerow([n.id, n.layer.value, n.network_id,
                        "" if math.isnan(n.x) else f"{n.x:.6f}",
                        "" if math.isnan(n.y) else f"{n.y:.6f}",
                        instance.vm_request.get(n.id, "")])
    with open(out / "edges.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "medium", "distance_m"])
        for (src, dst), (medium, distance_m) in instance.links.items():
            w.writerow([src, dst, medium.value, f"{distance_m:.6f}"])

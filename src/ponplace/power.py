"""Energy arithmetic: per-bit link costs, per-layer traffic power, workload
processing power and the weighted total objective.

All functions are pure over immutable inputs.  Traffic powers are computed
raw (unscaled); the networking scaling factor ``A`` is applied only in the
total objective and in the per-bit routing costs, where relay, coordinator,
ONU and OLT endpoints are weighted by ``A`` and object/gateway endpoints
are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .topology import (ConfigError, LayerKind, Medium, NetworkInstance,
                       check_types, type_rule)


class ModelError(ValueError):
    """Parameter/instance mismatch or undefined energy role."""


@dataclass(frozen=True)
class EnergyParams:
    """Per-bit energies (J/bit) and the wireless amplifier coefficient."""

    e_ot: float = 50e-9       # object transmit
    e_rt: float = 50e-9       # relay transmit
    e_rr: float = 50e-9       # relay receive
    e_ct: float = 50e-9       # coordinator transmit
    e_cr: float = 50e-9       # coordinator receive
    e_gr: float = 60e-6       # gateway receive
    e_gt: float = 15e-9       # gateway transmit
    e_u: float = 7.5e-9       # ONU (both directions)
    e_l: float = 225.6e-12    # OLT receive
    epsilon: float = 255e-12  # amplifier, J/(bit*m^2), wireless links only
    scaling_a: float = 5.0    # networking scaling factor

    def __post_init__(self):
        """Refuse a value that is not a finite number >= 0."""
        for f in fields(self):
            value = getattr(self, f.name)
            if type_rule(f.default, value) or value < 0.0:
                raise ModelError(f"energy.{f.name} is {value!r}; it must be "
                                 f"a finite number >= 0")


#: The energies every scenario uses.  One shared object, so the per-instance
#: caches keyed by it (route tables, link energies) match it by identity.
DEFAULT_ENERGY = EnergyParams()


#: CPU counts per candidate layer.
DEFAULT_CPU_COUNTS = {
    LayerKind.RELAY: 1,
    LayerKind.COORDINATOR: 2,
    LayerKind.GATEWAY: 4,
    LayerKind.ONU: 4,
    LayerKind.OLT: 10,
}

DEFAULT_CPU_POWER_W = 4.64
#: Scenario 3 equips the OLT with a less efficient CPU.
INEFFICIENT_OLT_CPU_POWER_W = 9.28


@dataclass(frozen=True)
class ProcessingParams:
    """Per-layer CPU power and counts; max power is their product.  Each
    candidate layer needs a finite power >= 0 and an integer count >= 1."""

    cpu_power_w: dict[LayerKind, float] = field(
        default_factory=lambda: {k: DEFAULT_CPU_POWER_W for k in DEFAULT_CPU_COUNTS})
    cpus: dict[LayerKind, int] = field(
        default_factory=lambda: dict(DEFAULT_CPU_COUNTS))

    def __post_init__(self):
        for key, least, rule in (("cpu_power_w", 0.0, "a finite number >= 0"),
                                 ("cpus", 1, "an integer >= 1")):
            for layer in DEFAULT_CPU_COUNTS:
                value = getattr(self, key).get(layer)
                if type_rule(least, value) or value < least:
                    raise ModelError(f"processing.{key}[{layer.value}] is "
                                     f"{value!r}; it must be {rule}")

    def max_power(self, layer: LayerKind) -> float:
        if layer not in self.cpus:
            raise ModelError(f"layer {layer} cannot host a cloudlet")
        return self.cpu_power_w[layer] * self.cpus[layer]


#: Normalized workload of VM type t (1-based) per hosting layer, as fractions
#: of that layer's full CPU complement.  Type t uses t times the type-1 row.
_BASE_WORKLOAD_ROW = {
    LayerKind.RELAY: 0.1,
    LayerKind.COORDINATOR: 0.05,
    LayerKind.GATEWAY: 0.025,
    LayerKind.ONU: 0.025,
    LayerKind.OLT: 0.01,
}


def _vm_types(value) -> int:
    """``value`` if it is an integer >= 1, else a ModelError."""
    if type_rule(1, value) or value < 1:
        raise ModelError(f"workloads.vm_types is {value!r}; it must be an "
                         f"integer >= 1")
    return value


@dataclass(frozen=True)
class WorkloadTable:
    """Map (vm_type, layer) -> normalized workload fraction for ``vm_types``
    (an integer >= 1) VM types: every type below ``vm_types`` has a finite
    fraction in [0, 1] at every candidate layer, and so does any other
    entry."""

    w: dict[tuple[int, LayerKind], float]
    vm_types: int

    def __post_init__(self):
        needed = [(v, layer) for v in range(_vm_types(self.vm_types))
                  for layer in DEFAULT_CPU_COUNTS]
        for v, layer in dict.fromkeys([*needed, *self.w]):
            frac = self.w.get((v, layer))
            if type_rule(0.0, frac) or not 0.0 <= frac <= 1.0:
                raise ModelError(f"workloads.w[{v}, {layer.value}] is {frac!r}"
                                 f"; it must be a finite number in [0, 1]")

    @classmethod
    def heterogeneous(cls, vm_types: int = 4) -> "WorkloadTable":
        """Type t takes t/10 of a relay CPU, scaled down the layers."""
        if _vm_types(vm_types) > 4:
            raise ConfigError(f"topology.vm_types is {vm_types}; scenario "
                              f"1's workload table defines 4 VM types")
        w = {(v, layer): (v + 1) * frac
             for v in range(vm_types)
             for layer, frac in _BASE_WORKLOAD_ROW.items()}
        return cls(w=w, vm_types=vm_types)

    @classmethod
    def homogeneous(cls, vm_types: int = 4) -> "WorkloadTable":
        """Every type carries the heaviest (type-4) demand."""
        w = {(v, layer): 4 * frac
             for v in range(_vm_types(vm_types))
             for layer, frac in _BASE_WORKLOAD_ROW.items()}
        return cls(w=w, vm_types=vm_types)

    def workload(self, vm_type: int, layer: LayerKind) -> float:
        try:
            return self.w[(vm_type, layer)]
        except KeyError:
            raise ModelError(f"no workload for type {vm_type} at {layer}") from None


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set for one evaluation cell."""

    energy: EnergyParams
    processing: ProcessingParams
    workloads: WorkloadTable
    demand_bps: float = 5000.0
    reduction_pct: float = 0.5   # fraction of volume removed by processing
    capacity_enforced: bool = True
    scenario: int = 1

    def __post_init__(self):
        """Refuse a value of the wrong type or out of range."""
        check_types(self, "model", ModelError)
        for key, bad, rule in (
                ("scenario", self.scenario not in (1, 2, 3), "1, 2 or 3"),
                ("reduction_pct", not 0.0 <= self.reduction_pct < 1.0,
                 "in [0, 1)"),
                ("demand_bps", self.demand_bps <= 0.0, "a finite number > 0")):
            if bad:
                raise ModelError(f"model.{key} is {getattr(self, key)!r}; "
                                 f"it must be {rule}")

    @property
    def remaining_fraction(self) -> float:
        """Fraction of a cloudlet's inflow that continues to the OLT."""
        return 1.0 - self.reduction_pct

    @classmethod
    def for_scenario(cls, scenario: int = 1, reduction_pct: float = 0.5,
                     vm_types: int = 4, **overrides) -> "ModelParams":
        """Scenario 1: heterogeneous VM CPU demands.  Scenario 2: all types
        at the heaviest demand.  Scenario 3: as 2, with an inefficient OLT
        CPU (9.28 W).  Left out, the scenario is 1 and the reduction 0.5."""
        table = (WorkloadTable.heterogeneous if scenario == 1
                 else WorkloadTable.homogeneous)
        processing = ProcessingParams(cpu_power_w={
            k: INEFFICIENT_OLT_CPU_POWER_W if scenario == 3
            and k is LayerKind.OLT else DEFAULT_CPU_POWER_W
            for k in DEFAULT_CPU_COUNTS})
        return cls(energy=DEFAULT_ENERGY, processing=processing,
                   workloads=table(vm_types), reduction_pct=reduction_pct,
                   scenario=scenario, **overrides)


_TX_ATTR = {
    LayerKind.OBJECT: "e_ot",
    LayerKind.RELAY: "e_rt",
    LayerKind.COORDINATOR: "e_ct",
    LayerKind.GATEWAY: "e_gt",
    LayerKind.ONU: "e_u",
}

_RX_ATTR = {
    LayerKind.RELAY: "e_rr",
    LayerKind.COORDINATOR: "e_cr",
    LayerKind.GATEWAY: "e_gr",
    LayerKind.ONU: "e_u",
    LayerKind.OLT: "e_l",
}

#: Layers whose traffic power the objective scales by A.
SCALED_LAYERS = (LayerKind.RELAY, LayerKind.COORDINATOR,
                 LayerKind.ONU, LayerKind.OLT)


class LinkEnergies(NamedTuple):
    """``links`` maps each link of an instance, in build order, to its
    (tx, rx, cost) in J/bit under one ``EnergyParams``: transmit energy at
    the source (amplifier term included on wireless links), receive energy
    at the destination, and their A-weighted sum.  ``slot[n]`` is the
    index of node n's layer in ``LayerKind`` order."""

    links: dict[tuple[int, int], tuple[float, float, float]]
    slot: list[int]


def link_energies(instance: NetworkInstance,
                  energy: EnergyParams) -> LinkEnergies:
    """The instance's table for ``energy``, built on first use; a link
    without a transmitting source or a receiving destination is refused."""
    table = instance.link_energies.get(energy)
    if table is not None:
        return table
    layers = [node.layer for node in instance.nodes]
    tx_of = [getattr(energy, _TX_ATTR[k]) if k in _TX_ATTR else None
             for k in layers]
    rx_of = [getattr(energy, _RX_ATTR[k]) if k in _RX_ATTR else None
             for k in layers]
    weight = [a_weight(k, energy.scaling_a) for k in layers]
    links = {}
    for link, (medium, distance_m) in instance.links.items():
        src, dst = link
        tx = tx_of[src]
        if tx is None:
            raise ModelError(f"layer {layers[src]} has no transmit role")
        if medium is Medium.WIRELESS:
            tx += energy.epsilon * distance_m ** 2
        rx = rx_of[dst]
        if rx is None:
            raise ModelError(f"layer {layers[dst]} has no receive role")
        links[link] = (tx, rx, weight[src] * tx + weight[dst] * rx)
    slot = [list(LayerKind).index(k) for k in layers]
    table = instance.link_energies[energy] = LinkEnergies(links, slot)
    return table


def a_weight(layer: LayerKind, scaling_a: float) -> float:
    """The objective's weight on a layer's traffic: A or 1."""
    return scaling_a if layer in SCALED_LAYERS else 1.0


def traffic_power(flows, instance: NetworkInstance,
                  params: ModelParams) -> dict[LayerKind, float]:
    """Raw (unscaled) per-layer traffic power in watts.

    Each node is charged its transmit energy (plus the amplifier term on
    wireless links) for outgoing bits and its receive energy for incoming
    bits.  Objects only transmit; the OLT only receives.
    """
    links, slot = link_energies(instance, params.energy)
    power = [0.0] * len(LayerKind)
    upt, pt = flows.link_rates()
    for pair in set(upt) | set(pt):
        try:
            tx, rx, _ = links[pair]
        except KeyError:
            raise ModelError(f"flow on non-existent link {pair}") from None
        rate = upt.get(pair, 0.0) + pt.get(pair, 0.0)
        power[slot[pair[0]]] += rate * tx
        power[slot[pair[1]]] += rate * rx
    return dict(zip(LayerKind, power))


def processing_power(solution, instance: NetworkInstance,
                     params: ModelParams) -> dict[LayerKind, float]:
    """Per-layer processing power: each cloudlet contributes its total
    normalized workload times its layer's max CPU power.  Capacity is the
    validator's to judge, not this sum's."""
    power = {k: 0.0 for k in LayerKind}
    for c, tw in sorted(solution.workload.items()):
        layer = instance.layer(c)
        power[layer] += tw * params.processing.max_power(layer)
    return power


@dataclass(frozen=True)
class PowerReport:
    """Per-layer processing and traffic power; the weighted total is
    derived from them when the report is made."""

    processing_w: dict[LayerKind, float]
    traffic_w_raw: dict[LayerKind, float]
    scaling_a: float
    total_w: float = field(init=False)

    def __post_init__(self):
        total = sum(self.processing_w.values())
        for watts in self.traffic_w_scaled().values():
            total += watts
        object.__setattr__(self, "total_w", total)

    def traffic_w_scaled(self) -> dict[LayerKind, float]:
        return {k: v * a_weight(k, self.scaling_a)
                for k, v in self.traffic_w_raw.items()}


def total_objective(solution, flows, instance: NetworkInstance,
                    params: ModelParams) -> PowerReport:
    """The minimized total: all processing, plus object and gateway
    traffic raw, plus A times the relay/coordinator/ONU/OLT traffic."""
    return PowerReport(
        processing_w=processing_power(solution, instance, params),
        traffic_w_raw=traffic_power(flows, instance, params),
        scaling_a=params.energy.scaling_a)

"""Placement solutions and per-commodity flow assignments shared by the exact
engine, the heuristic and the validator."""

from __future__ import annotations

from dataclasses import dataclass, field

from .power import ModelParams
from .topology import LayerKind, NetworkInstance


@dataclass(frozen=True)
class PlacementSolution:
    """What an engine or a solution file decides: which VM types sit at
    which candidate nodes, the resulting cloudlet workloads and the
    per-object traffic shares.  Node layers are read from the instance."""

    #: (candidate node id, vm type) pairs with a placed instance.
    placed: frozenset[tuple[int, int]]
    #: candidate node id -> total normalized workload.
    workload: dict[int, float]
    #: object id -> [(serving candidate, share in bps)], summing to demand.
    assignment: dict[int, list[tuple[int, float]]]
    #: candidates a solution file states open (``H_c`` 1), or None when it
    #: states no ``H_c``; an engine decides ``placed`` alone.
    opened: frozenset[int] | None = None

    @classmethod
    def from_assignment(cls, instance: NetworkInstance, params: ModelParams,
                        served: dict[int, int]) -> "PlacementSolution":
        """Build from a single-instance assignment ``object -> candidate``;
        the placed set and workloads follow from the objects' VM requests."""
        placed = frozenset((c, instance.vm_request[o]) for o, c in served.items())
        workload: dict[int, float] = {}
        for c, v in placed:
            workload[c] = workload.get(c, 0.0) + params.workloads.workload(
                v, instance.layer(c))
        assignment = {o: [(c, params.demand_bps)] for o, c in served.items()}
        return cls(placed=placed, workload=workload, assignment=assignment)

    def cloudlet_open(self) -> set[int]:
        return {c for c, _ in self.placed}

    def placed_layers(self, instance: NetworkInstance) -> list[LayerKind]:
        return [instance.layer(c) for c, _ in self.placed]


@dataclass
class FlowAssignment:
    """Per-commodity bit rates realizing all demands.  They are the only
    flow record: per-link totals are summed from them by ``link_rates``."""

    #: (object, cloudlet) -> {link -> bps} for the unprocessed commodity.
    upt_commodity: dict[tuple[int, int], dict[tuple[int, int], float]] = field(default_factory=dict)
    #: cloudlet -> {link -> bps} for its processed commodity to the OLT.
    pt_commodity: dict[int, dict[tuple[int, int], float]] = field(default_factory=dict)
    #: cloudlet -> processed rate handed to the OLT.
    pt_cl: dict[int, float] = field(default_factory=dict)

    def add_unprocessed(self, o: int, c: int, path, rate: float) -> None:
        com = self.upt_commodity.setdefault((o, c), {})
        for a, b in zip(path, path[1:]):
            com[(a, b)] = com.get((a, b), 0.0) + rate

    def add_processed(self, c: int, path, rate: float) -> None:
        self.pt_cl[c] = self.pt_cl.get(c, 0.0) + rate
        com = self.pt_commodity.setdefault(c, {})
        for a, b in zip(path, path[1:]):
            com[(a, b)] = com.get((a, b), 0.0) + rate

    def link_rates(self) -> tuple[dict[tuple[int, int], float],
                                  dict[tuple[int, int], float]]:
        """Unprocessed and processed bps per directed link (src, dst),
        summed over the commodities in one pass, in insertion order."""
        totals = ({}, {})
        for total, commodities in zip(totals, (self.upt_commodity,
                                               self.pt_commodity)):
            for com in commodities.values():
                for pair, rate in com.items():
                    total[pair] = total.get(pair, 0.0) + rate
        return totals


def build_flows(instance: NetworkInstance, params: ModelParams,
                solution: PlacementSolution,
                path_unprocessed, path_processed) -> FlowAssignment:
    """Route every assigned share: unprocessed object -> cloudlet along
    ``path_unprocessed(o, c)``, then the reduced fraction cloudlet -> OLT
    along ``path_processed(c)`` (skipped for an OLT-hosted cloudlet, whose
    processed path has zero length)."""
    flows = FlowAssignment()
    olt = instance.olt_id
    inflow: dict[int, float] = {}
    for o in sorted(solution.assignment):
        for c, rate in solution.assignment[o]:
            if rate <= 0.0:
                continue
            flows.add_unprocessed(o, c, path_unprocessed(o, c), rate)
            inflow[c] = inflow.get(c, 0.0) + rate
    f = params.remaining_fraction
    for c in sorted(inflow):
        if c == olt:
            continue
        flows.add_processed(c, path_processed(c), f * inflow[c])
    return flows

"""Placement solutions and per-commodity flow assignments shared by the exact
engine, the heuristic and the validator, and the routed tail both engines
end in (``serve``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .power import ModelParams, PowerReport, total_objective
from .topology import NetworkInstance


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

    def cloudlet_open(self) -> set[int]:
        return {c for c, _ in self.placed}


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
                solution: PlacementSolution, route) -> FlowAssignment:
    """Route every assigned share along the path that
    ``route(instance, params, src, dst)`` returns as its last item:
    unprocessed object -> cloudlet, then the reduced fraction cloudlet ->
    OLT (skipped for an OLT-hosted cloudlet, whose processed path has zero
    length)."""
    flows = FlowAssignment()
    olt = instance.olt_id
    inflow: dict[int, float] = {}
    for o in sorted(solution.assignment):
        for c, rate in solution.assignment[o]:
            flows.add_unprocessed(o, c, route(instance, params, o, c)[-1], rate)
            inflow[c] = inflow.get(c, 0.0) + rate
    f = params.remaining_fraction
    for c in sorted(inflow):
        if c == olt:
            continue
        flows.add_processed(c, route(instance, params, c, olt)[-1],
                            f * inflow[c])
    return flows


class EngineResult(NamedTuple):
    """What an engine returns: its placement, the routed flows and their
    power."""

    solution: PlacementSolution
    flows: FlowAssignment
    report: PowerReport

    @property
    def served_count(self) -> int:
        return len(self.solution.assignment)


def serve(instance: NetworkInstance, params: ModelParams,
          served: dict[int, int], route) -> EngineResult:
    """The part both engines share once each object has its candidate
    (``object -> candidate``): place the objects' VM types there, route
    the demands with ``route`` and total the power."""
    placed = frozenset((c, instance.vm_request[o]) for o, c in served.items())
    workload: dict[int, float] = {}
    for c, v in placed:
        workload[c] = workload.get(c, 0.0) + params.workloads.workload(
            v, instance.layer(c))
    assignment = {o: [(c, params.demand_bps)] for o, c in served.items()}
    solution = PlacementSolution(placed=placed, workload=workload,
                                 assignment=assignment)
    flows = build_flows(instance, params, solution, route)
    return EngineResult(solution, flows,
                        total_objective(solution, flows, instance, params))

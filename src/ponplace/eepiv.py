"""Greedy capacity-checked VM placement with min-hop routing.

Candidates are scanned bottom-up (relays first, network by network, the OLT
last) and each VM type is hosted at the first candidate with spare workload
capacity whose network does not already see an instance of that type.  The
OLT counts as belonging to every network.  Demands are then routed per
commodity on minimum-hop paths and the total power computed with the same
weighting as the exact engine, so both objectives are commensurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .milp import require_known_vm_types
from .power import ModelParams, PowerReport, total_objective
from .routing import min_hop_path
from .solution import FlowAssignment, PlacementSolution, build_flows
from .topology import (LayerKind, NetworkInstance, OLT_NETWORK_ID,
                       candidate_nodes)


@dataclass(frozen=True)
class HeuristicResult:
    solution: PlacementSolution
    flows: FlowAssignment
    report: PowerReport
    served_count: int


def _candidate_order(instance: NetworkInstance) -> list[int]:
    layer_rank = {LayerKind.RELAY: 0, LayerKind.COORDINATOR: 1,
                  LayerKind.GATEWAY: 2, LayerKind.ONU: 3}
    cand = candidate_nodes(instance)
    olt = instance.olt_id
    below = sorted((c for c in cand if c != olt),
                   key=lambda c: (instance.network_of(c),
                                  layer_rank[instance.layer(c)], c))
    return below + [olt]


def run_eepiv(instance: NetworkInstance,
              params: ModelParams) -> HeuristicResult:
    """Run the greedy placement and routing pass.

    Objects whose type finds no host (capacity exhaustion) are left
    unserved and excluded from ``served_count``; with the default
    parameters every object is served.  A VM type outside the workload
    table raises ``InfeasibleError``, as in the other engines.
    """
    require_known_vm_types(instance, params)
    vm_types = params.workloads.vm_types
    demanded = {(net, v): False for net in instance.networks
                for v in range(vm_types)}
    for o in instance.objects():
        demanded[(instance.network_of(o), instance.vm_request[o])] = True

    # host[(network, type)] -> candidate node serving that network's type.
    host: dict[tuple[int, int], int] = {}
    workload: dict[int, float] = {}
    for c in _candidate_order(instance):
        c_net = instance.network_of(c)
        c_layer = instance.layer(c)
        nets = instance.networks if c_net == OLT_NETWORK_ID else [c_net]
        for v in range(vm_types):
            wanting = [net for net in nets
                       if demanded[(net, v)] and (net, v) not in host]
            if not wanting:
                continue
            w = params.workloads.workload(v, c_layer)
            if workload.get(c, 0.0) + w > 1.0 + 1e-12:
                continue
            workload[c] = workload.get(c, 0.0) + w
            for net in wanting:
                host[(net, v)] = c

    served: dict[int, int] = {}
    for o in instance.objects():
        c = host.get((instance.network_of(o), instance.vm_request[o]))
        if c is not None:
            served[o] = c

    solution = PlacementSolution.from_assignment(instance, params, served)
    olt = instance.olt_id
    flows = build_flows(
        instance, params, solution,
        path_unprocessed=lambda o, c: min_hop_path(instance, params, o, c)[2],
        path_processed=lambda c: min_hop_path(instance, params, c, olt)[2])
    report = total_objective(solution, flows, instance, params)
    return HeuristicResult(solution=solution, flows=flows, report=report,
                           served_count=len(served))

"""Greedy capacity-checked VM placement with min-hop routing.

Candidates are scanned bottom-up (relays first, network by network, the OLT
last) and each VM type is hosted at the first candidate with spare workload
capacity (any candidate when capacity is not enforced) whose network does
not already see an instance of that type.  The OLT counts as belonging to
every network.  Demands are then routed per commodity on minimum-hop paths
and the total power computed as for the exact engine (``solution.serve``),
so both objectives are commensurable.
"""

from __future__ import annotations

from .milp import require_known_vm_types
from .power import ModelParams
from .routing import min_hop_path
from .solution import EngineResult, serve
from .topology import LayerKind, NetworkInstance, OLT_NETWORK_ID


def _candidate_order(instance: NetworkInstance) -> list[int]:
    layer_rank = {LayerKind.RELAY: 0, LayerKind.COORDINATOR: 1,
                  LayerKind.GATEWAY: 2, LayerKind.ONU: 3}
    olt = instance.olt_id
    below = sorted((c for c in instance.candidates if c != olt),
                   key=lambda c: (instance.network_of(c),
                                  layer_rank[instance.layer(c)], c))
    return below + [olt]


def run_eepiv(instance: NetworkInstance,
              params: ModelParams) -> EngineResult:
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
            if (params.capacity_enforced
                    and workload.get(c, 0.0) + w > 1.0 + 1e-12):
                continue
            workload[c] = workload.get(c, 0.0) + w
            for net in wanting:
                host[(net, v)] = c

    served: dict[int, int] = {}
    for o in instance.objects():
        c = host.get((instance.network_of(o), instance.vm_request[o]))
        if c is not None:
            served[o] = c

    return serve(instance, params, served, min_hop_path)

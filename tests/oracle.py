"""Independent brute-force oracle used to check the exact engine.

Deliberately shares nothing with the engine's search: link costs come
from its own per-link formula (``ref_link_cost``), paths from networkx
Dijkstra, per-type placements are enumerated exhaustively with
itertools, and costs are summed in plain Python.  Valid whenever the
per-cloudlet workload cap cannot bind across types (the corpus keeps
vm_types <= 2, where the worst combined workload is 0.8).
"""

import itertools
import random

import networkx as nx

import ponplace as pp
from ponplace.topology import LayerKind, Medium, OLT_NETWORK_ID, RelayLayout

CORPUS_REDUCTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: The energy formula evaluated link by link: each end's energy attribute
#: by its layer, the amplifier term on wireless links, and A on the scaled
#: layers.  The engines' link-energy table must equal it bit for bit.
REF_TX = {LayerKind.OBJECT: "e_ot", LayerKind.RELAY: "e_rt",
          LayerKind.COORDINATOR: "e_ct", LayerKind.GATEWAY: "e_gt",
          LayerKind.ONU: "e_u"}
REF_RX = {LayerKind.RELAY: "e_rr", LayerKind.COORDINATOR: "e_cr",
          LayerKind.GATEWAY: "e_gr", LayerKind.ONU: "e_u",
          LayerKind.OLT: "e_l"}
REF_SCALED = (LayerKind.RELAY, LayerKind.COORDINATOR, LayerKind.ONU,
              LayerKind.OLT)


def ref_link_energy(instance, link, energy):
    medium, distance_m = instance.links[link]
    tx = getattr(energy, REF_TX[instance.layer(link[0])])
    if medium is Medium.WIRELESS:
        tx += energy.epsilon * distance_m ** 2
    return tx, getattr(energy, REF_RX[instance.layer(link[1])])


def ref_weight(instance, node, energy):
    return (energy.scaling_a if instance.layer(node) in REF_SCALED
            else 1.0)


def ref_link_cost(instance, link, energy):
    tx, rx = ref_link_energy(instance, link, energy)
    return (ref_weight(instance, link[0], energy) * tx
            + ref_weight(instance, link[1], energy) * rx)


def corpus_case(rng: random.Random):
    """One random reduced-scale (instance, params) pair within the
    oracle-safe bounds: <= 3 relays and <= 6 objects per network,
    <= 2 VM types, any scenario, any reduction value."""
    relays = rng.choice([1, 2, 3])
    cfg = pp.TopologyConfig(
        networks=2,
        objects_per_network=rng.randint(2, 6),
        relays_per_network=relays,
        relay_layout=RelayLayout.GRID if relays == 1 else RelayLayout.LINE,
        vm_types=rng.choice([1, 2]),
        rng_seed=rng.randrange(10 ** 6))
    params = pp.ModelParams.for_scenario(
        rng.choice([1, 2, 3]), rng.choice(CORPUS_REDUCTIONS),
        vm_types=cfg.vm_types)
    return pp.build_instance(cfg), params


def _candidates(instance) -> list[int]:
    """Every node but the objects, ascending."""
    return [n.id for n in instance.nodes if n.layer is not LayerKind.OBJECT]


def _visible(instance, cand, o) -> list[int]:
    """The candidates that may serve object ``o``: its own network's and
    the OLT, which belongs to every network."""
    return [c for c in cand if instance.network_of(c)
            in (instance.network_of(o), OLT_NETWORK_ID)]


def _cost_graph(instance, params) -> nx.DiGraph:
    """The links weighted by ``ref_link_cost``."""
    g = nx.DiGraph()
    for link in instance.links:
        g.add_edge(*link, w=ref_link_cost(instance, link, params.energy))
    return g


def brute_force_optimum(instance, params) -> float:
    """Exhaustive optimum: per VM type, try every candidate subset and give
    each object its cheapest open facility (single instance, cheapest
    path); sum the per-type minima.  Asserts the workload cap never binds,
    which makes the per-type decomposition exact."""
    g = _cost_graph(instance, params)
    cand = _candidates(instance)
    olt = instance.olt_id
    sub = g.subgraph(cand)
    proc = {c: (0.0 if c == olt else
                nx.dijkstra_path_length(sub, c, olt, weight="w"))
            for c in cand}
    demand = params.demand_bps
    f = params.remaining_fraction

    total = 0.0
    best_workload: dict[int, float] = {}
    for v in range(params.workloads.vm_types):
        objs = [o for o in instance.objects() if instance.vm_request[o] == v]
        assign_cost = {}
        for o in objs:
            lengths = nx.single_source_dijkstra_path_length(g, o, weight="w")
            for c in _visible(instance, cand, o):
                if c in lengths:
                    assign_cost[(o, c)] = (demand * lengths[c]
                                           + f * demand * proc[c])
        open_cost = {c: params.workloads.workload(v, instance.layer(c))
                     * params.processing.max_power(instance.layer(c))
                     for c in cand}
        best = None
        best_set = ()
        subsets = itertools.chain.from_iterable(
            itertools.combinations(cand, k) for k in range(len(cand) + 1))
        for subset in subsets:
            cost = sum(open_cost[c] for c in subset)
            feasible = True
            for o in objs:
                options = [assign_cost[(o, c)] for c in subset
                           if (o, c) in assign_cost]
                if not options:
                    feasible = False
                    break
                cost += min(options)
            if feasible and (best is None or cost < best):
                best, best_set = cost, subset
        assert best is not None, f"type {v} unservable"
        total += best
        for c in best_set:
            best_workload[c] = best_workload.get(c, 0.0) \
                + params.workloads.workload(v, instance.layer(c))
    assert all(tw <= 1.0 + 1e-9 for tw in best_workload.values()), \
        "corpus case hit the workload cap; per-type oracle invalid"
    return total


def joint_brute_force_optimum(instance, params) -> float:
    """Fully joint enumeration (product of per-type subsets) honoring the
    workload cap.  Exponential in types x candidates; tiny instances only."""
    g = _cost_graph(instance, params)
    cand = _candidates(instance)
    olt = instance.olt_id
    sub = g.subgraph(cand)
    proc = {c: (0.0 if c == olt else
                nx.dijkstra_path_length(sub, c, olt, weight="w"))
            for c in cand}
    demand = params.demand_bps
    f = params.remaining_fraction
    vm_types = params.workloads.vm_types
    assign_cost = {}
    for o in instance.objects():
        lengths = nx.single_source_dijkstra_path_length(g, o, weight="w")
        for c in _visible(instance, cand, o):
            if c in lengths:
                assign_cost[(o, c)] = (demand * lengths[c]
                                       + f * demand * proc[c])
    all_subsets = list(itertools.chain.from_iterable(
        itertools.combinations(cand, k) for k in range(len(cand) + 1)))
    best = None
    for combo in itertools.product(all_subsets, repeat=vm_types):
        workload: dict[int, float] = {}
        cost = 0.0
        for v, subset in enumerate(combo):
            for c in subset:
                w = params.workloads.workload(v, instance.layer(c))
                workload[c] = workload.get(c, 0.0) + w
                cost += w * params.processing.max_power(instance.layer(c))
        if params.capacity_enforced and \
                any(tw > 1.0 + 1e-12 for tw in workload.values()):
            continue
        feasible = True
        for o in instance.objects():
            v = instance.vm_request[o]
            options = [assign_cost[(o, c)] for c in combo[v]
                       if (o, c) in assign_cost]
            if not options:
                feasible = False
                break
            cost += min(options)
        if feasible and (best is None or cost < best):
            best = cost
    return best

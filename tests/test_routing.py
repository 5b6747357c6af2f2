"""The route table against a Dijkstra search that settles every node.

``_dijkstra`` below is the reference: every route the table answers, from
searches it settles only as far as asked, must equal it in hops, cost and
path, including its tie-break order (hops, then cost, then the smallest
node-id path).
"""

import heapq
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

import ponplace as pp
from ponplace import milp
from ponplace.experiments import topology_for_scale
from ponplace.power import (EnergyParams, ModelParams, ProcessingParams,
                            WorkloadTable, link_energies)
from ponplace.routing import (Unreachable, cheapest_path, cheapest_paths,
                              min_hop_path)
from ponplace.topology import (LayerKind, Medium, NetworkInstance, Node,
                               RelayLayout)


def _dijkstra(instance, params, src, allowed, key):
    """Settle every reachable node; returns node -> (key_tuple, path).

    ``key(link) -> tuple`` gives the additive edge weight of a ``(src,
    dst)`` link.  Ties are broken by the lexicographically smallest node-id
    path, which makes the result independent of heap insertion order.
    """
    out = {}  # node -> its out-links, in build order
    for link in instance.links:
        out.setdefault(link[0], []).append(link)
    zero = tuple(0 for _ in key(next(iter(instance.links))))
    best = {}
    heap = [(zero, (src,))]
    while heap:
        weight, path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = (weight, path)
        for link in out.get(node, ()):
            dst = link[1]
            if dst in best:
                continue
            if allowed is not None and dst not in allowed:
                continue
            w = tuple(a + b for a, b in zip(weight, key(link)))
            heapq.heappush(heap, (w, path + (dst,)))
    return best


def link_cost(instance, link, params):
    return link_energies(instance, params.energy).links[link][2]


def ref_cheapest(instance, params, src, allowed=None):
    res = _dijkstra(instance, params, src, allowed,
                    key=lambda ln: (link_cost(instance, ln, params),))
    return {n: (w[0], path) for n, (w, path) in res.items()}


def ref_min_hop(instance, params, src, allowed=None):
    res = _dijkstra(instance, params, src, allowed,
                    key=lambda ln: (1, link_cost(instance, ln, params)))
    return {n: (w[0], w[1], path) for n, (w, path) in res.items()}


def assert_matches_reference(instance, params):
    """Every object x visible candidate route and every candidate -> OLT
    route on the candidate subgraph, in both orders."""
    olt = instance.olt_id
    for o in instance.objects():
        cheap, hop = ref_cheapest(instance, params, o), \
            ref_min_hop(instance, params, o)
        assert cheapest_paths(instance, params, o) == cheap
        for c in instance.serving[instance.network_of(o)]:
            assert cheapest_path(instance, params, o, c) == cheap[c]
            assert min_hop_path(instance, params, o, c) == hop[c]
    cn = set(instance.candidates)
    for c in cn:
        assert cheapest_path(instance, params, c, olt) == \
            ref_cheapest(instance, params, c, allowed=cn)[olt]
        assert min_hop_path(instance, params, c, olt) == \
            ref_min_hop(instance, params, c, allowed=cn)[olt]


@pytest.mark.parametrize("seed", [1, 7])
def test_paper_scale_matches_reference(seed):
    instance = pp.build_instance(topology_for_scale("paper", seed))
    assert_matches_reference(instance, ModelParams.for_scenario(1, 0.5))


@pytest.mark.parametrize("seed", [1, 7, 8])
def test_reduced_scale_matches_reference(seed):
    instance = pp.build_instance(topology_for_scale("reduced", seed))
    assert_matches_reference(instance, ModelParams.for_scenario(2, 0.3))


#: Every link costs 0; the relay mesh then has zero-cost cycles.
ZERO_ENERGIES = (EnergyParams(**{f.name: 0.0 for f in fields(EnergyParams)}),
                 EnergyParams(scaling_a=0.0))

#: The default energies, two with a large unscaled amplifier term that make
#: detours through the relay mesh cheapest and produce exact ties, and the
#: zero-cost ones.
ENERGIES = (EnergyParams(), EnergyParams(epsilon=1e-6, scaling_a=1.0),
            EnergyParams(epsilon=2e-8, scaling_a=1.0)) + ZERO_ENERGIES


@settings(max_examples=60, deadline=None)
@given(networks=st.integers(1, 2), objects=st.integers(0, 5),
       layout=st.sampled_from([(RelayLayout.LINE, n) for n in range(1, 7)]
                              + [(RelayLayout.GRID, n) for n in (1, 4, 9)]),
       coordinator=st.none() | st.tuples(st.floats(-60.0, 90.0),
                                         st.floats(-60.0, 90.0)),
       energy=st.sampled_from(ENERGIES), seed=st.integers(0, 10 ** 6))
def test_small_topologies_match_reference(networks, objects, layout,
                                          coordinator, energy, seed):
    relay_layout, relays = layout
    config = pp.TopologyConfig(networks=networks, objects_per_network=objects,
                               relays_per_network=relays,
                               relay_layout=relay_layout, relay_spacing_m=9.0,
                               coordinator_xy=coordinator, rng_seed=seed)
    params = replace(ModelParams.for_scenario(1, 0.5), energy=energy)
    assert_matches_reference(pp.build_instance(config), params)


@pytest.mark.parametrize("energy", ZERO_ENERGIES)
def test_zero_cost_links_match_reference(energy, monkeypatch):
    instance = pp.build_instance(topology_for_scale("reduced", 7))
    params = replace(ModelParams.for_scenario(1, 0.5), energy=energy)
    assert_matches_reference(instance, params)
    solution, _, report = milp.solve_exact(instance, params)

    # The exact engine on the reference routes gives the same answer.
    cn = set(instance.candidates)
    monkeypatch.setattr(milp, "cheapest_paths", ref_cheapest)
    monkeypatch.setattr(milp, "cheapest_path", lambda inst, p, src, dst:
                        ref_cheapest(inst, p, src, allowed=cn)[dst])
    ref_solution, _, ref_report = milp.solve_exact(
        pp.build_instance(topology_for_scale("reduced", 7)), params)
    assert report.total_w == ref_report.total_w
    assert solution.placed == ref_solution.placed
    assert solution.assignment == ref_solution.assignment


def test_thirty_relay_line_matches_reference():
    config = pp.TopologyConfig(networks=2, objects_per_network=20,
                               relays_per_network=30,
                               relay_layout=RelayLayout.LINE,
                               relay_spacing_m=6.0, rng_seed=3)
    for energy in (EnergyParams(), EnergyParams(epsilon=2e-8, scaling_a=1.0),
                   ZERO_ENERGIES[0]):
        params = replace(ModelParams.for_scenario(1, 0.5), energy=energy)
        assert_matches_reference(pp.build_instance(config), params)


def mirrored_instance():
    """One object, four relays and a distant coordinator, mirror-symmetric
    about the x axis, so that routes through relays 1 and 2 (and 3 and 4)
    cost exactly the same."""
    xy = {0: (0.0, 0.0), 1: (10.0, 5.0), 2: (10.0, -5.0),
          3: (25.0, -5.0), 4: (25.0, 5.0), 5: (40.0, 0.0)}
    layers = [LayerKind.OBJECT] + [LayerKind.RELAY] * 4 + [
        LayerKind.COORDINATOR, LayerKind.GATEWAY, LayerKind.ONU, LayerKind.OLT]
    nodes = [Node(i, layer, -1 if layer is LayerKind.OLT else 0,
                  *xy.get(i, (math.nan, math.nan)))
             for i, layer in enumerate(layers)]

    def link(a, b, medium=Medium.WIRELESS, dist=None):
        if dist is None:
            dist = math.hypot(nodes[a].x - nodes[b].x, nodes[a].y - nodes[b].y)
        return (a, b), (medium, dist)

    relays = (1, 2, 3, 4)
    links = [link(0, r) for r in relays]
    links += [link(a, b) for a in relays for b in relays if a != b]
    links += [link(r, 5) for r in relays]
    links += [link(5, 6, dist=100.0), link(6, 7, Medium.ETHERNET, 0.0),
              link(7, 8, Medium.FIBER, 0.0)]
    config = pp.TopologyConfig(networks=1, objects_per_network=1,
                               relays_per_network=4, vm_types=1)
    return NetworkInstance(config, nodes, dict(links), {0: 0})


def test_exact_ties_take_the_smallest_node_id_path():
    instance = mirrored_instance()
    # A large, unscaled amplifier term makes the two-relay detour the
    # cheapest route.
    params = ModelParams(energy=EnergyParams(epsilon=1e-6, scaling_a=1.0),
                         processing=ProcessingParams(),
                         workloads=WorkloadTable.heterogeneous(1))
    reference = ref_cheapest(instance, params, 0)

    def cost(path):
        total = 0
        for a, b in zip(path, path[1:]):
            total += link_cost(instance, (a, b), params)
        return total

    # (0, 1, 4, 5) and (0, 2, 3, 5) tie exactly; the smaller path wins even
    # though it enters the coordinator from the larger relay.
    assert cost((0, 1, 4, 5)) == cost((0, 2, 3, 5)) == reference[5][0]
    assert reference[5][1] == (0, 1, 4, 5)
    assert cheapest_path(instance, params, 0, 5) == reference[5]
    # Two hops: relays 3 and 4 tie; relay 3 wins.
    assert min_hop_path(instance, params, 0, 8)[2] == (0, 3, 5, 6, 7, 8)
    assert_matches_reference(instance, params)


def other_network_relay(instance, src):
    return next(n.id for n in instance.nodes_by_layer[LayerKind.RELAY]
                if n.network_id != instance.network_of(src))


@pytest.mark.parametrize("olt_first", [True, False])
@pytest.mark.parametrize("order", ["cheapest", "min_hop"])
@pytest.mark.parametrize("make, energy, unreachable", [
    pytest.param(lambda: pp.build_instance(topology_for_scale("paper", 7)),
                 EnergyParams(), other_network_relay, id="paper-seed7"),
    # Every node of the mirrored instance is reachable from its object.
    pytest.param(mirrored_instance, EnergyParams(epsilon=1e-6, scaling_a=1.0),
                 lambda instance, src: len(instance.nodes), id="mirrored")])
def test_partly_settled_searches_match_reference(make, energy, unreachable,
                                                 order, olt_first):
    """Routes from object 0 asked in an order that stops its search early
    (at the first relay of its OLT route when that is asked first), drains
    it on an unreachable target, then asks it for the rest."""
    instance = make()
    params = replace(ModelParams.for_scenario(1, 0.5), energy=energy)
    if order == "cheapest":
        ref = ref_cheapest(instance, params, 0)
        answer = lambda dst: cheapest_path(instance, params, 0, dst)
    else:
        ref = ref_min_hop(instance, params, 0)
        answer = lambda dst: min_hop_path(instance, params, 0, dst)
    olt = instance.olt_id
    relay = ref[olt][-1][1]
    assert instance.layer(relay) is LayerKind.RELAY
    for dst in (olt, relay) if olt_first else (relay, olt):
        assert answer(dst) == ref[dst]
    with pytest.raises(Unreachable):
        answer(unreachable(instance, 0))
    for dst in sorted(ref, reverse=True):
        assert answer(dst) == ref[dst]
    assert cheapest_paths(instance, params, 0) == \
        ref_cheapest(instance, params, 0)


def test_unreachable_pairs_raise(paper_instance):
    params = ModelParams.for_scenario(1, 0.5)
    olt = paper_instance.olt_id
    other_relay = paper_instance.nodes_by_layer[LayerKind.RELAY][-1].id
    with pytest.raises(Unreachable):
        min_hop_path(paper_instance, params, 0, other_relay)
    with pytest.raises(Unreachable):
        cheapest_path(paper_instance, params, olt, 0)
    assert cheapest_paths(paper_instance, params, olt) == {olt: (0.0, (olt,))}


def test_table_is_shared_across_scenarios(paper_instance):
    min_hop_path(paper_instance, ModelParams.for_scenario(1, 0.1), 0, 50)
    min_hop_path(paper_instance, ModelParams.for_scenario(3, 0.9), 0, 50)
    assert list(paper_instance.route_tables) == [EnergyParams()]

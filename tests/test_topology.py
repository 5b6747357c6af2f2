import dataclasses
import math
import re

import pytest

import ponplace as pp
from ponplace.experiments import REDUCED_SCALE_CONFIG
from ponplace.topology import (ConfigError, LayerKind, Medium, Node,
                               OLT_NETWORK_ID, RelayLayout)

ALLOWED_LAYER_PAIRS = {
    (LayerKind.OBJECT, LayerKind.RELAY),
    (LayerKind.RELAY, LayerKind.RELAY),
    (LayerKind.RELAY, LayerKind.COORDINATOR),
    (LayerKind.COORDINATOR, LayerKind.GATEWAY),
    (LayerKind.GATEWAY, LayerKind.ONU),
    (LayerKind.ONU, LayerKind.OLT),
}


def test_default_instance_node_count(paper_instance):
    # 2 networks x (50 objects + 25 relays + coordinator + gateway + ONU) + OLT
    assert len(paper_instance.nodes) == 157
    assert len(paper_instance.nodes_by_layer[LayerKind.OLT]) == 1
    for layer, per_net in [(LayerKind.ONU, 1), (LayerKind.GATEWAY, 1),
                           (LayerKind.COORDINATOR, 1)]:
        assert len(paper_instance.nodes_by_layer[layer]) == 2 * per_net


def test_default_candidate_count(paper_instance):
    assert len(paper_instance.candidates) == 57


def test_relay_grid_coordinates(paper_instance):
    xs = sorted({round(n.x, 9) for n in
                 paper_instance.nodes_by_layer[LayerKind.RELAY]})
    assert xs == [3.0, 9.0, 15.0, 21.0, 27.0]


def test_minimal_chain_unique_path(minimal_chain):
    inst = minimal_chain
    obj = inst.objects()[0]
    out = {}  # node -> the ends of its out-links
    for src, dst in inst.links:
        out.setdefault(src, []).append(dst)
    assert len(out[obj]) == 1
    assert inst.links[obj, out[obj][0]][0] is Medium.WIRELESS
    # follow the only links all the way to the OLT
    hops = []
    node = obj
    while node in out:
        assert len(out[node]) == 1
        node = out[node][0]
        hops.append(inst.layer(node))
    assert hops == [LayerKind.RELAY, LayerKind.COORDINATOR,
                    LayerKind.GATEWAY, LayerKind.ONU, LayerKind.OLT]


def test_minimal_chain_candidates(minimal_chain):
    assert len(minimal_chain.candidates) == 5


def test_round_robin_request_balance(paper_instance):
    for net in (0, 1):
        counts = [0] * 4
        for o in paper_instance.objects():
            if paper_instance.network_of(o) == net:
                counts[paper_instance.vm_request[o]] += 1
        assert sorted(counts) == [12, 12, 13, 13]


def test_determinism():
    cfg = pp.TopologyConfig(rng_seed=123)
    a = pp.build_instance(cfg)
    b = pp.build_instance(cfg)
    assert a.nodes == b.nodes
    assert a.links == b.links
    assert a.vm_request == b.vm_request


def test_different_seed_moves_objects():
    a = pp.build_instance(pp.TopologyConfig(rng_seed=1))
    b = pp.build_instance(pp.TopologyConfig(rng_seed=2))
    assert a.nodes != b.nodes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer_discipline_and_isolation(seed):
    inst = pp.build_instance(pp.TopologyConfig(rng_seed=seed))
    for src, dst in inst.links:
        assert (inst.layer(src), inst.layer(dst)) in ALLOWED_LAYER_PAIRS
        if inst.network_of(dst) != OLT_NETWORK_ID:
            assert inst.network_of(src) == inst.network_of(dst)


def test_wireless_distances_bounded(paper_instance):
    side = paper_instance.config.area_side_m
    for (src, _), (medium, distance_m) in paper_instance.links.items():
        if medium is Medium.WIRELESS:
            if paper_instance.layer(src) is LayerKind.COORDINATOR:
                assert distance_m == 100.0
            else:
                assert distance_m <= side * math.sqrt(2) + 1e-9


def test_objects_within_area(paper_instance):
    side = paper_instance.config.area_side_m
    for n in paper_instance.nodes_by_layer[LayerKind.OBJECT]:
        assert 0.0 <= n.x <= side and 0.0 <= n.y <= side


def test_zero_relays_excludes_layer():
    cfg = pp.TopologyConfig(networks=1, objects_per_network=0,
                            relays_per_network=0)
    inst = pp.build_instance(cfg)
    layers = {inst.layer(c) for c in inst.candidates}
    assert LayerKind.RELAY not in layers
    assert len(inst.candidates) == 4


def test_config_errors():
    with pytest.raises(ConfigError):
        pp.build_instance(pp.TopologyConfig(networks=0))
    with pytest.raises(ConfigError):
        pp.build_instance(pp.TopologyConfig(relays_per_network=3))  # not square
    with pytest.raises(ConfigError):
        pp.build_instance(pp.TopologyConfig(objects_per_network=5,
                                            relays_per_network=0))
    with pytest.raises(ConfigError):
        pp.build_instance(pp.TopologyConfig(vm_types=0))


@pytest.mark.parametrize("key,value", [
    ("gateway_coordinator_distance_m", math.nan),
    ("gateway_coordinator_distance_m", math.inf),
    ("relay_spacing_m", math.nan), ("relay_spacing_m", -math.inf),
    ("area_side_m", math.inf), ("area_side_m", math.nan),
    ("coordinator_xy", (math.nan, 1.0)), ("coordinator_xy", (1.0, math.inf)),
    pytest.param("area_side_m", 10 ** 400, id="area_side_m-beyond-float")])
def test_non_finite_config_refused(key, value):
    with pytest.raises(ConfigError, match=f"^topology.{key} is "):
        dataclasses.replace(REDUCED_SCALE_CONFIG, **{key: value})


@pytest.mark.parametrize("key,value,rule", [
    ("relay_layout", "grid", "a RelayLayout"),
    ("objects_per_network", 2.0, "an integer"),
    ("networks", 2.5, "an integer"), ("networks", True, "an integer"),
    ("rng_seed", 7.5, "an integer"), ("area_side_m", "30", "a finite number"),
    ("relay_spacing_m", False, "a finite number"),
    ("coordinator_xy", [1.0, 2.0], "None or a pair of finite numbers"),
    ("coordinator_xy", (1.0, "2"), "None or a pair of finite numbers")])
def test_wrong_type_config_refused(key, value, rule):
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"topology.{key} is {value!r}; it must be {rule}") + "$"):
        dataclasses.replace(REDUCED_SCALE_CONFIG, **{key: value})


def test_candidates_and_serving_follow_ids_not_layers():
    # Two networks interleaved by id, layers out of order, the OLT first.
    spec = [(LayerKind.OLT, OLT_NETWORK_ID), (LayerKind.ONU, 1),
            (LayerKind.RELAY, 0), (LayerKind.OBJECT, 1),
            (LayerKind.GATEWAY, 0), (LayerKind.OBJECT, 0),
            (LayerKind.RELAY, 1), (LayerKind.COORDINATOR, 1),
            (LayerKind.ONU, 0), (LayerKind.COORDINATOR, 0),
            (LayerKind.GATEWAY, 1), (LayerKind.RELAY, 0)]
    nodes = [Node(i, layer, net, 0.0, 0.0)
             for i, (layer, net) in enumerate(spec)]
    inst = pp.NetworkInstance(pp.TopologyConfig(), nodes, {}, {3: 0, 5: 0})
    assert inst.candidates == (0, 1, 2, 4, 6, 7, 8, 9, 10, 11)
    assert inst.serving == {0: (0, 2, 4, 8, 9, 11), 1: (0, 1, 6, 7, 10)}


def test_line_layout_accepts_any_count():
    cfg = pp.TopologyConfig(relays_per_network=3,
                            relay_layout=RelayLayout.LINE)
    inst = pp.build_instance(cfg)
    assert len(inst.nodes_by_layer[LayerKind.RELAY]) == 6


def test_csv_export(tmp_path, minimal_chain):
    pp.topology.write_csv(minimal_chain, tmp_path)
    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    edges = (tmp_path / "edges.csv").read_text().splitlines()
    assert nodes[0] == "id,layer,network,x,y,vm_request"
    assert len(nodes) == 1 + len(minimal_chain.nodes)
    assert edges[0] == "src,dst,medium,distance_m"
    assert len(edges) == 1 + len(minimal_chain.links)


def test_olt_shared_by_both_networks(paper_instance):
    olt = paper_instance.olt_id
    sources = {paper_instance.network_of(src)
               for src, dst in paper_instance.links if dst == olt}
    assert sources == {0, 1}

import random

import pytest

import ponplace as pp
from ponplace.eepiv import run_eepiv
from ponplace.milp import solve_exact, validate_solution
from ponplace.power import ModelParams
from ponplace.topology import LayerKind

from chain import minimal_chain_config
from oracle import corpus_case


@pytest.mark.parametrize("scenario,cloudlets", [(1, 2), (2, 4), (3, 4)])
def test_full_scale_placement_shape(paper_instance, scenario, cloudlets):
    params = ModelParams.for_scenario(scenario, 0.5)
    res = run_eepiv(paper_instance, params)
    assert res.served_count == 100
    assert len(res.solution.cloudlet_open()) == cloudlets
    assert len(res.solution.placed) == 8  # 2 networks x 4 types
    assert {paper_instance.layer(c) for c, _ in res.solution.placed} == {
        LayerKind.RELAY}


def test_full_scale_flows_validate(paper_instance):
    params = ModelParams.for_scenario(1, 0.5)
    res = run_eepiv(paper_instance, params)
    check = validate_solution(res.solution, res.flows, paper_instance, params)
    assert check.ok
    assert check.objective_w == pytest.approx(res.report.total_w, rel=1e-9)


def test_one_instance_per_network_and_type(paper_instance):
    params = ModelParams.for_scenario(2, 0.5)
    res = run_eepiv(paper_instance, params)
    seen = set()
    for o, shares in res.solution.assignment.items():
        net, v = paper_instance.network_of(o), paper_instance.vm_request[o]
        for c, share in shares:
            if share > 0:
                seen.add((net, v, c))
    # every (network, type) pair maps to exactly one serving candidate
    assert len(seen) == len({(net, v) for net, v, _ in seen})


def test_capacity_respected_everywhere():
    cfg = pp.TopologyConfig(networks=1, objects_per_network=8,
                            relays_per_network=1, vm_types=4)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(2, 0.5)  # 0.4 per VM at a relay
    res = run_eepiv(inst, params)
    assert all(tw <= 1.0 + 1e-9 for tw in res.solution.workload.values())
    assert res.served_count == 8


def test_no_capacity_places_past_the_cap(reduced_instance):
    """With capacity not enforced the greedy scan never passes a candidate
    over: each network's first relay hosts all four types, a workload of
    1.6 in scenario 2."""
    params = ModelParams.for_scenario(2, 0.5, capacity_enforced=False)
    res = run_eepiv(reduced_instance, params)
    first = [min(n.id for n in reduced_instance.nodes_by_layer[LayerKind.RELAY]
                 if n.network_id == net)
             for net in reduced_instance.networks]
    assert res.solution.placed == {(c, v) for c in first for v in range(4)}
    assert res.solution.workload == {c: pytest.approx(1.6) for c in first}
    assert res.served_count == 48


def test_zero_objects_zero_power():
    inst = pp.build_instance(minimal_chain_config(objects_per_network=0))
    params = ModelParams.for_scenario(1, 0.5, vm_types=1)
    res = run_eepiv(inst, params)
    assert res.served_count == 0
    assert res.report.total_w == 0.0


def test_never_beats_exact():
    rng = random.Random(99)
    for _ in range(10):
        inst, params = corpus_case(rng)
        heur = run_eepiv(inst, params)
        _, _, exact = solve_exact(inst, params)
        assert heur.report.total_w >= exact.total_w - 1e-9


def test_deterministic(paper_instance):
    params = ModelParams.for_scenario(3, 0.7)
    a = run_eepiv(paper_instance, params)
    b = run_eepiv(paper_instance, params)
    assert a.solution.placed == b.solution.placed
    assert a.report.total_w == b.report.total_w
    assert a.flows.link_rates() == b.flows.link_rates()


import random

import pytest
from hypothesis import given, settings, strategies as st

import ponplace as pp
from ponplace.eepiv import run_eepiv
from ponplace.milp import solve_exact, validate_solution
from ponplace.power import DEFAULT_CPU_COUNTS, ModelParams
from ponplace.topology import LayerKind, RelayLayout

from oracle import corpus_case

SMALL = settings(max_examples=20, deadline=None)


def small_instance(seed, objects=4, vm_types=2):
    cfg = pp.TopologyConfig(networks=2, objects_per_network=objects,
                            relays_per_network=2,
                            relay_layout=RelayLayout.LINE,
                            vm_types=vm_types, rng_seed=seed)
    return pp.build_instance(cfg)


@SMALL
@given(seed=st.integers(0, 10 ** 6))
def test_topology_determinism(seed):
    cfg = pp.TopologyConfig(networks=1, objects_per_network=3,
                            relays_per_network=1, rng_seed=seed)
    assert pp.build_instance(cfg).nodes == pp.build_instance(cfg).nodes


@SMALL
@given(seed=st.integers(0, 10 ** 4), scale=st.floats(0.1, 100.0))
def test_traffic_power_is_linear(seed, scale):
    inst = small_instance(seed)
    params = ModelParams.for_scenario(1, 0.5, vm_types=2)
    res = run_eepiv(inst, params)
    base = pp.traffic_power(res.flows, inst, params)
    scaled_flows = pp.FlowAssignment(
        upt_commodity={key: {k: v * scale for k, v in com.items()}
                       for key, com in res.flows.upt_commodity.items()},
        pt_commodity={key: {k: v * scale for k, v in com.items()}
                      for key, com in res.flows.pt_commodity.items()})
    scaled = pp.traffic_power(scaled_flows, inst, params)
    for layer in base:
        assert scaled[layer] == pytest.approx(scale * base[layer], rel=1e-9)


@SMALL
@given(seed=st.integers(0, 10 ** 4),
       r=st.sampled_from([0.1, 0.3, 0.5, 0.7]),
       scenario=st.sampled_from([1, 2, 3]))
def test_exact_total_nonincreasing_in_reduction(seed, r, scenario):
    inst = small_instance(seed)
    lo = ModelParams.for_scenario(scenario, r, vm_types=2)
    hi = ModelParams.for_scenario(scenario, r + 0.2, vm_types=2)
    assert solve_exact(inst, lo)[2].total_w >= \
        solve_exact(inst, hi)[2].total_w - 1e-12


@SMALL
@given(case_seed=st.integers(0, 10 ** 6))
def test_heuristic_never_beats_exact(case_seed):
    inst, params = corpus_case(random.Random(case_seed))
    heur = run_eepiv(inst, params)
    _, _, exact = solve_exact(inst, params)
    assert heur.report.total_w >= exact.total_w - 1e-9


@SMALL
@given(seed=st.integers(0, 10 ** 4),
       scenario=st.sampled_from([1, 2, 3]),
       r=st.sampled_from([0.1, 0.5, 0.9]),
       engine=st.sampled_from(["eepiv", "exact"]))
def test_engines_emit_valid_solutions(seed, scenario, r, engine):
    inst = small_instance(seed)
    params = ModelParams.for_scenario(scenario, r, vm_types=2)
    if engine == "eepiv":
        res = run_eepiv(inst, params)
        sol, flows = res.solution, res.flows
    else:
        sol, flows, _ = solve_exact(inst, params)
    check = validate_solution(sol, flows, inst, params)
    assert check.ok, check.violations[:5]


@SMALL
@given(seed=st.integers(0, 10 ** 4), scenario=st.sampled_from([1, 2]),
       vm_type=st.integers(0, 3))
def test_instance_power_is_location_invariant(seed, scenario, vm_type):
    params = ModelParams.for_scenario(scenario, 0.5)
    costs = {layer: params.workloads.workload(vm_type, layer)
             * params.processing.max_power(layer)
             for layer in DEFAULT_CPU_COUNTS}
    assert len({round(c, 12) for c in costs.values()}) == 1


@SMALL
@given(seed=st.integers(0, 10 ** 4))
def test_flow_conservation_at_interior_nodes(seed):
    inst = small_instance(seed)
    params = ModelParams.for_scenario(2, 0.3, vm_types=2)
    res = run_eepiv(inst, params)
    open_c = res.solution.cloudlet_open()
    olt = inst.olt_id
    net = {}
    upt, _ = res.flows.link_rates()
    for (x, y), rate in upt.items():
        net[x] = net.get(x, 0.0) + rate
        net[y] = net.get(y, 0.0) - rate
    for node, balance in net.items():
        if inst.layer(node) is LayerKind.OBJECT or node in open_c:
            continue
        assert balance == pytest.approx(0.0, abs=1e-9)

import dataclasses
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import ponplace as pp
from ponplace import milp
from ponplace.milp import (InfeasibleError, ResourceBudgetError, solve_exact,
                           validate_solution)
from ponplace.power import ModelParams
from ponplace.routing import cheapest_path, cheapest_paths
from ponplace.topology import LayerKind, RelayLayout

from chain import minimal_chain_config
from oracle import brute_force_optimum, corpus_case, joint_brute_force_optimum


def test_minimal_chain_places_at_relay(minimal_chain):
    params = ModelParams.for_scenario(1, 0.5, vm_types=1)
    sol, flows, report = solve_exact(minimal_chain, params)
    relay = minimal_chain.nodes_by_layer[LayerKind.RELAY][0].id
    assert sol.placed == {(relay, 0)}
    assert validate_solution(sol, flows, minimal_chain, params).ok


def test_matches_oracle_on_random_cases():
    rng = random.Random(2024)
    for _ in range(8):
        inst, params = corpus_case(rng)
        _, _, report = solve_exact(inst, params)
        assert report.total_w == pytest.approx(
            brute_force_optimum(inst, params), rel=1e-9)


def test_microwatt_near_ties_match_oracle():
    # At 1/1000 of the demand, placements differ by nanowatts to microwatts,
    # inside HiGHS's absolute gap of 1e-6 unless the costs are scaled.
    rng = random.Random(20240817)
    for _ in range(40):
        inst, params = corpus_case(rng)
        params = dataclasses.replace(params,
                                     demand_bps=params.demand_bps * 1e-3)
        _, _, report = solve_exact(inst, params)
        assert report.total_w == pytest.approx(
            brute_force_optimum(inst, params), rel=1e-9)


def test_low_traffic_consolidates_at_olt():
    # duplicated per-network copies cost more than one shared instance
    cfg = pp.TopologyConfig(networks=2, objects_per_network=2,
                            relays_per_network=1, vm_types=1)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(2, 0.1, vm_types=1)
    sol, _, _ = solve_exact(inst, params)
    assert sol.placed == {(inst.olt_id, 0)}


def test_zero_energy_reduces_to_processing():
    cfg = pp.TopologyConfig(networks=2, objects_per_network=4,
                            relays_per_network=1, vm_types=2)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(1, 0.5, vm_types=2)
    zeroed = dataclasses.replace(
        params, energy=dataclasses.replace(
            params.energy, e_ot=0, e_rt=0, e_rr=0, e_ct=0, e_cr=0, e_gr=0,
            e_gt=0, e_u=0, e_l=0, epsilon=0))
    _, _, report = solve_exact(inst, zeroed)
    expected = sum(params.workloads.workload(v, LayerKind.OLT)
                   * params.processing.max_power(LayerKind.OLT)
                   for v in (0, 1))  # one shared instance per type
    assert report.total_w == pytest.approx(expected, rel=1e-12)


def test_capacity_binding_matches_joint_oracle():
    # huge demand pulls every type toward the relay; its cap forces a split
    cfg = pp.TopologyConfig(networks=1, objects_per_network=3,
                            relays_per_network=1, vm_types=3)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(2, 0.5, vm_types=3, demand_bps=1e6)
    sol, flows, report = solve_exact(inst, params)
    assert validate_solution(sol, flows, inst, params).ok
    assert max(sol.workload.values()) <= 1.0 + 1e-9
    assert report.total_w == pytest.approx(
        joint_brute_force_optimum(inst, params), rel=1e-9)


def test_capacity_toggle_never_hurts():
    cfg = pp.TopologyConfig(networks=1, objects_per_network=3,
                            relays_per_network=1, vm_types=3)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(2, 0.5, vm_types=3, demand_bps=1e6)
    _, _, capped = solve_exact(inst, params)
    relaxed = dataclasses.replace(params, capacity_enforced=False)
    _, _, free = solve_exact(inst, relaxed)
    assert free.total_w <= capped.total_w + 1e-12


def test_paper_scale_validates(paper_instance):
    params = ModelParams.for_scenario(1, 0.5)
    sol, flows, report = solve_exact(paper_instance, params)
    check = validate_solution(sol, flows, paper_instance, params)
    assert check.violations == []
    assert check.objective_w == pytest.approx(report.total_w, rel=1e-9)


def test_expansion_budget(monkeypatch):
    # the node limit is the budget; at 0 nodes HiGHS cannot prove anything
    cfg = pp.TopologyConfig(networks=1, objects_per_network=3,
                            relays_per_network=1, vm_types=3)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(2, 0.5, vm_types=3, demand_bps=1e6)
    monkeypatch.setattr(milp, "NODE_LIMIT", 0)
    with pytest.raises(ResourceBudgetError, match="node limit"):
        solve_exact(inst, params)


def record_milp_options(monkeypatch) -> list[dict]:
    """Wrap the real ``scipy.optimize.milp``; the list gets each call's
    options, copied first because scipy pops keys from the dict it gets."""
    seen, real = [], scipy.optimize.milp

    def wrapped(*args, options=None, **kwargs):
        seen.append(dict(options))
        return real(*args, options=options, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", wrapped)
    return seen


def test_highs_options(monkeypatch, reduced_instance):
    # zero gap and the node limit make the answer exact; feasibility jump
    # only seeds a first incumbent, which the root LP makes needless
    seen = record_milp_options(monkeypatch)
    solve_exact(reduced_instance, ModelParams.for_scenario(2, 0.1))
    assert seen == [{"mip_rel_gap": 0.0, "node_limit": milp.NODE_LIMIT,
                     "mip_heuristic_run_feasibility_jump": False}]


def test_highs_option_warning_kept_quiet(monkeypatch, reduced_instance):
    # scipy warns about each option outside its documented five; solve_exact
    # passes one and must not let that warning reach the user
    seen = record_milp_options(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_exact(reduced_instance, ModelParams.for_scenario(2, 0.1))
    documented = {"disp", "presolve", "time_limit", "node_limit", "mip_rel_gap"}
    assert set(seen[0]) - documented


@pytest.mark.parametrize("engine", ["exact", "eepiv", "model"])
def test_unknown_vm_type_rejected(minimal_chain, engine):
    # no engine may answer for only the objects whose type it knows
    params = ModelParams.for_scenario(1, 0.5, vm_types=1)
    bad = pp.NetworkInstance(minimal_chain.config, list(minimal_chain.nodes),
                             minimal_chain.links,
                             {o: 5 for o in minimal_chain.objects()})
    run = {"exact": solve_exact, "eepiv": pp.run_eepiv,
           "model": pp.build_model}[engine]
    with pytest.raises(InfeasibleError, match="outside the table"):
        run(bad, params)


def test_capacity_infeasible_rejected():
    # Six objects of six VM types, each taking 0.9 of any layer's CPUs:
    # no cloudlet hosts two types, and the chain has only five.
    chain = pp.build_instance(minimal_chain_config(
        objects_per_network=6, vm_types=6))
    params = ModelParams.for_scenario(2, 0.5, vm_types=6)
    heavy = dataclasses.replace(params, workloads=pp.WorkloadTable(
        {(v, layer): 0.9 for v in range(6) for layer in LayerKind
         if layer is not LayerKind.OBJECT}, vm_types=6))
    with pytest.raises(InfeasibleError):
        solve_exact(chain, heavy)
    _, _, report = solve_exact(
        chain, dataclasses.replace(heavy, capacity_enforced=False))
    assert report.total_w > 0


def test_objects_go_to_their_cheapest_open_candidate(monkeypatch):
    # a solver answer opening every instance, with meaningless x, must
    # still put each object at its cheapest visible candidate
    cfg = pp.TopologyConfig(networks=2, objects_per_network=4,
                            relays_per_network=3, relay_layout=RelayLayout.LINE,
                            vm_types=2, rng_seed=5)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(1, 0.5, vm_types=2)
    monkeypatch.setattr(scipy.optimize, "milp", lambda c, **_: SimpleNamespace(
        status=0, x=np.ones(len(c))))
    sol, _, _ = solve_exact(inst, params)
    d, f, olt = params.demand_bps, params.remaining_fraction, inst.olt_id
    for o in inst.objects():
        up = cheapest_paths(inst, params, o)
        cost = {c: d * up[c][0] + f * d * (
                    0.0 if c == olt else cheapest_path(inst, params, c, olt)[0])
                for c in inst.serving[inst.network_of(o)] if c in up}
        assert sol.assignment[o] == [(min(cost, key=lambda c: (cost[c], c)), d)]


def test_deterministic():
    cfg = pp.TopologyConfig(networks=2, objects_per_network=5,
                            relays_per_network=2, relay_layout=RelayLayout.LINE,
                            vm_types=2, rng_seed=11)
    inst = pp.build_instance(cfg)
    params = ModelParams.for_scenario(3, 0.3, vm_types=2)
    a = solve_exact(inst, params)
    b = solve_exact(inst, params)
    assert a[0].placed == b[0].placed
    assert a[2].total_w == b[2].total_w


def test_empty_network_costs_nothing():
    inst = pp.build_instance(minimal_chain_config(objects_per_network=0))
    params = ModelParams.for_scenario(1, 0.5, vm_types=1)
    sol, flows, report = solve_exact(inst, params)
    assert sol.placed == frozenset()
    assert report.total_w == 0.0


def test_import_loads_no_numpy_scipy_or_process_pool():
    # solve_exact imports scipy (and numpy with it) on first use, run_sweep
    # a process pool only for jobs > 1; the heuristic never pays for them
    code = ("import ponplace, sys; "
            "loaded = [m for m in ('numpy', 'scipy', "
            "'concurrent.futures.process') if m in sys.modules]; "
            "assert not loaded, loaded")
    src = str(Path(pp.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})

import dataclasses
import math
import re

import pytest

import ponplace as pp
from ponplace.experiments import topology_for_scale
from ponplace.power import (DEFAULT_CPU_COUNTS, EnergyParams, ModelParams,
                            WorkloadTable)
from ponplace.routing import min_hop_path, route_table
from ponplace.solution import FlowAssignment, PlacementSolution
from ponplace.topology import LayerKind, Medium, Node
from chain import minimal_chain_config
from oracle import ref_link_cost, ref_link_energy
from test_routing import ENERGIES


def link_cost(src_layer, dst_layer, params, medium=Medium.WIRELESS,
              distance=0.0):
    """Cost of the one link (0, 1) between nodes of the given layers."""
    nodes = [Node(i, layer, 0, math.nan, math.nan)
             for i, layer in enumerate((src_layer, dst_layer))]
    instance = pp.NetworkInstance(pp.TopologyConfig(), nodes,
                                  {(0, 1): (medium, distance)}, {})
    return pp.power.link_energies(instance, params.energy).links[0, 1][2]


def scenario1(r=0.5, vm_types=4):
    return ModelParams.for_scenario(1, r, vm_types=vm_types)


class TestLinkCost:
    def test_object_to_relay(self):
        # 1*(50n + 255p*2) + 5*50n
        assert link_cost(LayerKind.OBJECT, LayerKind.RELAY, scenario1(),
                         distance=math.sqrt(2.0)) == pytest.approx(
            300.51e-9, rel=1e-12)

    def test_onu_to_olt(self):
        # 5*7.5n + 5*225.6p, no amplifier on fiber
        assert link_cost(LayerKind.ONU, LayerKind.OLT, scenario1(),
                         Medium.FIBER, 0.0) == pytest.approx(
            38.628e-9, rel=1e-12)

    def test_zero_energy_gives_zero(self):
        params = dataclasses.replace(
            scenario1(), energy=EnergyParams(
                e_ot=0, e_rt=0, e_rr=0, e_ct=0, e_cr=0, e_gr=0, e_gt=0,
                e_u=0, e_l=0, epsilon=0))
        assert link_cost(LayerKind.OBJECT, LayerKind.RELAY, params,
                         distance=12.0) == 0.0

    def test_undefined_role_raises(self):
        with pytest.raises(pp.ModelError):  # the OLT never transmits
            link_cost(LayerKind.OLT, LayerKind.ONU, scenario1())


def chain_instance():
    return pp.build_instance(minimal_chain_config(rng_seed=3))


def link_flows(upt=None, pt=None):
    """Flows with one one-link commodity per ``link: bps`` entry."""
    return FlowAssignment(
        upt_commodity={pair: {pair: bps} for pair, bps in (upt or {}).items()},
        pt_commodity={i: {pair: bps}
                      for i, (pair, bps) in enumerate((pt or {}).items())})


class TestTrafficPower:
    def test_single_object_transmission(self):
        inst = chain_instance()
        obj = inst.objects()[0]
        relay = next(dst for src, dst in inst.links if src == obj)
        # overwrite the drawn distance with d = 10 m
        inst.links[obj, relay] = (Medium.WIRELESS, 10.0)
        flows = link_flows(upt={(obj, relay): 5000.0})
        power = pp.traffic_power(flows, inst, scenario1())
        assert power[LayerKind.OBJECT] == pytest.approx(
            5000 * (50e-9 + 255e-12 * 100.0), rel=1e-12)  # 377.5 uW

    def test_zero_flows(self):
        inst = chain_instance()
        power = pp.traffic_power(FlowAssignment(), inst, scenario1())
        assert all(v == 0.0 for v in power.values())

    def test_onu_forwarding_raw(self):
        inst = chain_instance()
        gw = inst.nodes_by_layer[LayerKind.GATEWAY][0].id
        onu = inst.nodes_by_layer[LayerKind.ONU][0].id
        olt = inst.olt_id
        flows = link_flows(upt={(gw, onu): 10000.0, (onu, olt): 10000.0})
        power = pp.traffic_power(flows, inst, scenario1())
        assert power[LayerKind.ONU] == pytest.approx(
            10000 * 7.5e-9 * 2, rel=1e-12)  # 150 uW raw

    def test_unknown_link_rejected(self):
        inst = chain_instance()
        flows = link_flows(upt={(99, 100): 1.0})
        with pytest.raises(pp.ModelError):
            pp.traffic_power(flows, inst, scenario1())

    def test_linearity(self):
        inst = chain_instance()
        obj = inst.objects()[0]
        relay = next(dst for src, dst in inst.links if src == obj)
        base = link_flows(upt={(obj, relay): 5000.0},
                          pt={(obj, relay): 100.0})
        double = link_flows(upt={(obj, relay): 10000.0},
                            pt={(obj, relay): 200.0})
        p1 = pp.traffic_power(base, inst, scenario1())
        p2 = pp.traffic_power(double, inst, scenario1())
        for layer in p1:
            assert p2[layer] == pytest.approx(2 * p1[layer], abs=1e-18)


def ref_traffic_power(flows, instance, energy):
    power = {k: 0.0 for k in LayerKind}
    upt, pt = flows.link_rates()
    for pair in set(upt) | set(pt):
        tx, rx = ref_link_energy(instance, pair, energy)
        rate = upt.get(pair, 0.0) + pt.get(pair, 0.0)
        power[instance.layer(pair[0])] += rate * tx
        power[instance.layer(pair[1])] += rate * rx
    return power


@pytest.fixture(scope="module")
def paper_seed7():
    """A paper-scale instance of its own, so that the tables built for
    every energy below stay off the shared fixture."""
    return pp.build_instance(topology_for_scale("paper", 7))


@pytest.mark.parametrize("energy", ENERGIES)
class TestEnergyColumnsBitExact:
    """Every float read from the link-energy table equals the oracle's
    per-link formula exactly, zero energies and large amplifier terms
    included."""

    def test_every_link(self, paper_seed7, energy):
        inst = paper_seed7
        params = dataclasses.replace(scenario1(), energy=energy)
        for link in inst.links:
            cost = ref_link_cost(inst, link, energy)
            assert pp.power.link_energies(inst, energy).links[link][:2] \
                == ref_link_energy(inst, link, energy)
            assert pp.power.link_energies(inst, params.energy) \
                .links[link][2] == cost
            # The one-link path is the only one-hop path, so its min-hop
            # cost is the route table's cost of that link.
            assert min_hop_path(inst, params, *link) == (1, cost, link)

    def test_eepiv_cell_traffic(self, paper_seed7, energy):
        inst = paper_seed7
        params = dataclasses.replace(scenario1(), energy=energy)
        res = pp.run_eepiv(inst, params)
        ref = ref_traffic_power(res.flows, inst, energy)
        for power in (pp.traffic_power(res.flows, inst, params),
                      res.report.traffic_w_raw):
            assert list(power) == list(LayerKind)
            for layer in LayerKind:
                assert power[layer] == ref[layer], layer


BAD_ROLES = pytest.mark.parametrize("src_layer, dst_layer, text", [
    pytest.param(LayerKind.OLT, LayerKind.ONU,
                 "layer LayerKind.OLT has no transmit role",
                 id="olt-transmits"),
    pytest.param(LayerKind.RELAY, LayerKind.OBJECT,
                 "layer LayerKind.OBJECT has no receive role",
                 id="object-receives"),
    pytest.param(LayerKind.OLT, LayerKind.OBJECT,
                 "layer LayerKind.OLT has no transmit role", id="both")])


class TestEnergyRoleErrors:
    """A link without a transmitting source or a receiving destination is
    refused by every reader of the link-energy table, with the same
    text."""

    @staticmethod
    def bad_link(src_layer, dst_layer):
        inst = chain_instance()
        src = inst.nodes_by_layer[src_layer][0].id
        dst = inst.nodes_by_layer[dst_layer][0].id
        inst.links[src, dst] = (Medium.WIRELESS, 1.0)
        return inst, (src, dst)

    @BAD_ROLES
    def test_link_cost(self, src_layer, dst_layer, text):
        with pytest.raises(pp.ModelError, match=f"^{text}$"):
            link_cost(src_layer, dst_layer, scenario1())
        inst, link = self.bad_link(src_layer, dst_layer)
        with pytest.raises(pp.ModelError, match=f"^{text}$"):
            pp.power.link_energies(inst, scenario1().energy).links[link][2]

    @BAD_ROLES
    def test_route_table(self, src_layer, dst_layer, text):
        inst, _ = self.bad_link(src_layer, dst_layer)
        with pytest.raises(pp.ModelError, match=f"^{text}$"):
            route_table(inst, scenario1())
        assert inst.route_tables == {}

    @BAD_ROLES
    def test_traffic_power(self, src_layer, dst_layer, text):
        inst, link = self.bad_link(src_layer, dst_layer)
        with pytest.raises(pp.ModelError, match=f"^{text}$"):
            pp.traffic_power(link_flows(upt={link: 1.0}), inst, scenario1())
        with pytest.raises(pp.ModelError, match=f"^{text}$"):
            pp.traffic_power(link_flows(pt={link: 1.0}), inst, scenario1())

    @pytest.mark.parametrize("pair", [(99, 100), "object-to-olt"],
                             ids=["unknown-nodes", "object-to-olt"])
    def test_flow_on_missing_link(self, pair):
        inst = chain_instance()
        if pair == "object-to-olt":
            pair = (inst.objects()[0], inst.olt_id)
        assert pair not in inst.links
        with pytest.raises(pp.ModelError, match="^" + re.escape(
                f"flow on non-existent link {pair}") + "$"):
            pp.traffic_power(link_flows(upt={pair: 1.0}), inst, scenario1())


class TestLinkRates:
    def test_commodities_sum_per_link(self):
        flows = FlowAssignment()
        flows.add_unprocessed(0, 2, [0, 1, 2], 5000.0)
        flows.add_unprocessed(3, 2, [3, 1, 2], 2500.0)
        flows.add_processed(2, [2, 4, 5], 3750.0)
        flows.add_processed(4, [4, 5], 100.0)
        upt, pt = flows.link_rates()
        assert list(upt.items()) == [((0, 1), 5000.0), ((1, 2), 7500.0),
                                     ((3, 1), 2500.0)]
        assert list(pt.items()) == [((2, 4), 3750.0), ((4, 5), 3850.0)]
        assert flows.pt_cl == {2: 3750.0, 4: 100.0}


def placement_at(inst, node_id, vm_types, params):
    placed = frozenset((node_id, v) for v in vm_types)
    layer = inst.layer(node_id)
    workload = {node_id: sum(params.workloads.workload(v, layer)
                             for v in vm_types)}
    return PlacementSolution(placed=placed, workload=workload, assignment={})


class TestProcessingPower:
    def test_relay_two_types(self):
        inst = chain_instance()
        relay = inst.nodes_by_layer[LayerKind.RELAY][0].id
        sol = placement_at(inst, relay, [0, 1], scenario1())
        power = pp.processing_power(sol, inst, scenario1())
        assert power[LayerKind.RELAY] == pytest.approx(0.3 * 4.64, rel=1e-12)

    def test_empty_solution(self):
        inst = chain_instance()
        sol = PlacementSolution(frozenset(), {}, {})
        power = pp.processing_power(sol, inst, scenario1())
        assert all(v == 0.0 for v in power.values())

    def test_olt_sharing_beats_relay_duplication(self):
        params = ModelParams.for_scenario(2, 0.1)
        inst = chain_instance()
        olt = inst.olt_id
        sol = placement_at(inst, olt, [0, 1, 2, 3], params)
        power = pp.processing_power(sol, inst, params)
        assert power[LayerKind.OLT] == pytest.approx(0.16 * 46.4, rel=1e-12)
        # versus two per-network relay copies of the same four VMs
        assert power[LayerKind.OLT] == pytest.approx(7.424, rel=1e-12)
        assert 2 * 4 * 0.4 * 4.64 == pytest.approx(14.848)
        assert power[LayerKind.OLT] < 14.848

    def test_capacity_violation(self):
        params = ModelParams.for_scenario(2, 0.1)
        inst = chain_instance()
        relay = inst.nodes_by_layer[LayerKind.RELAY][0].id
        sol = placement_at(inst, relay, [0, 1, 2], params)  # 1.2 > 1
        # the power is accounted as stated; the validator judges capacity
        power = pp.processing_power(sol, inst, params)
        assert power[LayerKind.RELAY] == pytest.approx(1.2 * 4.64)
        check = pp.validate_solution(sol, FlowAssignment(), inst, params)
        capacity = [v for v in check.violations if v.family == "capacity"]
        assert [v.row for v in capacity] == [f"cap_{relay}"]
        assert capacity[0].residual == pytest.approx(0.2)
        relaxed = dataclasses.replace(params, capacity_enforced=False)
        check = pp.validate_solution(sol, FlowAssignment(), inst, relaxed)
        assert not any(v.family == "capacity" for v in check.violations)


class TestTotalObjective:
    def test_empty_is_zero(self):
        inst = chain_instance()
        sol = PlacementSolution(frozenset(), {}, {})
        report = pp.total_objective(sol, FlowAssignment(), inst, scenario1())
        assert report.total_w == 0.0

    def test_component_arithmetic(self):
        # processing 10, object 1, gateway 2, scaled layers 3, A = 5 -> 28
        report = pp.PowerReport(
            processing_w={LayerKind.RELAY: 10.0},
            traffic_w_raw={LayerKind.OBJECT: 1.0, LayerKind.GATEWAY: 2.0,
                           LayerKind.RELAY: 1.5, LayerKind.COORDINATOR: 0.5,
                           LayerKind.ONU: 0.5, LayerKind.OLT: 0.5},
            scaling_a=5.0)
        assert report.total_w == 28.0


class TestWorkloadTable:
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_location_invariance(self, scenario):
        params = ModelParams.for_scenario(scenario, 0.5)
        for v in range(4):
            costs = {layer: params.workloads.workload(v, layer)
                     * params.processing.max_power(layer)
                     for layer in DEFAULT_CPU_COUNTS}
            ref = costs[LayerKind.RELAY]
            for layer, cost in costs.items():
                assert cost == pytest.approx(ref, rel=1e-12)

    def test_scenario3_olt_double(self):
        params = ModelParams.for_scenario(3, 0.5)
        for v in range(4):
            relay = params.workloads.workload(v, LayerKind.RELAY) \
                * params.processing.max_power(LayerKind.RELAY)
            olt = params.workloads.workload(v, LayerKind.OLT) \
                * params.processing.max_power(LayerKind.OLT)
            assert olt == pytest.approx(2 * relay, rel=1e-12)

    def test_default_rows(self):
        table = WorkloadTable.heterogeneous()
        assert table.workload(0, LayerKind.RELAY) == pytest.approx(0.1)
        assert table.workload(3, LayerKind.OLT) == pytest.approx(0.04)
        homo = WorkloadTable.homogeneous()
        for v in range(4):
            assert homo.workload(v, LayerKind.RELAY) == pytest.approx(0.4)

    def test_remaining_fraction(self):
        assert scenario1(r=0.3).remaining_fraction == pytest.approx(0.7)
        with pytest.raises(pp.ModelError):
            ModelParams.for_scenario(1, 1.0)
        with pytest.raises(pp.ModelError):
            ModelParams.for_scenario(4, 0.5)


@pytest.mark.parametrize("key,value", [
    ("reduction_pct", 1.5), ("reduction_pct", 1.0), ("reduction_pct", -0.1),
    ("scenario", 0), ("scenario", 7), ("demand_bps", -5000.0),
    ("demand_bps", 0.0), ("demand_bps", math.nan), ("demand_bps", math.inf)])
def test_model_params_refuse_out_of_range(key, value):
    params = ModelParams.for_scenario(1, 0.5)
    with pytest.raises(pp.ModelError, match="^" + re.escape(
            f"model.{key} is {value!r}; it must be ")):
        dataclasses.replace(params, **{key: value})


@pytest.mark.parametrize("value", [-1e-9, math.nan, math.inf])
@pytest.mark.parametrize("name", [f.name for f in
                                  dataclasses.fields(EnergyParams)])
def test_energy_params_refuse_negative_or_non_finite(name, value):
    with pytest.raises(pp.ModelError, match="^" + re.escape(
            f"energy.{name} is {value!r}; it must be a finite number >= 0")
            + "$"):
        dataclasses.replace(EnergyParams(), **{name: value})


@pytest.mark.parametrize("key,value,rule", [
    ("scenario", True, "an integer"), ("scenario", 2.0, "an integer"),
    ("capacity_enforced", "no", "true or false"),
    ("reduction_pct", False, "a finite number"),
    ("demand_bps", "5000", "a finite number")])
def test_model_params_refuse_wrong_type(key, value, rule):
    with pytest.raises(pp.ModelError, match="^" + re.escape(
            f"model.{key} is {value!r}; it must be {rule}") + "$"):
        dataclasses.replace(ModelParams.for_scenario(1, 0.5), **{key: value})


def test_for_scenario_refuses_a_bool_scenario():
    with pytest.raises(pp.ModelError, match=r"^model\.scenario is True; "):
        ModelParams.for_scenario(True, 0.5)


@pytest.mark.parametrize("value", ["1", True])
@pytest.mark.parametrize("name", [f.name for f in
                                  dataclasses.fields(EnergyParams)])
def test_energy_params_refuse_non_numbers(name, value):
    with pytest.raises(pp.ModelError, match="^" + re.escape(
            f"energy.{name} is {value!r}; it must be a finite number >= 0")
            + "$"):
        dataclasses.replace(EnergyParams(), **{name: value})


def _but(table, key, value=None):
    """``table`` with ``key`` set to ``value``, or left out if None."""
    return {k: v for k, v in {**table, key: value}.items() if v is not None}


POWERS = {k: pp.power.DEFAULT_CPU_POWER_W for k in DEFAULT_CPU_COUNTS}


@pytest.mark.parametrize("key,value,named", [
    ("cpu_power_w", {k: -4.64 for k in DEFAULT_CPU_COUNTS},
     "cpu_power_w[relay] is -4.64; it must be a finite number >= 0"),
    ("cpu_power_w", _but(POWERS, LayerKind.OLT, math.inf),
     "cpu_power_w[olt] is inf; it must be a finite number >= 0"),
    ("cpu_power_w", _but(POWERS, LayerKind.ONU),
     "cpu_power_w[onu] is None; it must be a finite number >= 0"),
    ("cpus", _but(DEFAULT_CPU_COUNTS, LayerKind.GATEWAY, 0),
     "cpus[gateway] is 0; it must be an integer >= 1"),
    ("cpus", _but(DEFAULT_CPU_COUNTS, LayerKind.RELAY, 2.5),
     "cpus[relay] is 2.5; it must be an integer >= 1"),
    ("cpus", _but(DEFAULT_CPU_COUNTS, LayerKind.OLT),
     "cpus[olt] is None; it must be an integer >= 1")],
    ids=["negative-power", "infinite-power", "power-missing", "no-cpus",
         "fractional-cpus", "cpus-missing"])
def test_processing_params_refuse(key, value, named):
    with pytest.raises(pp.ModelError,
                       match="^" + re.escape(f"processing.{named}") + "$"):
        dataclasses.replace(pp.ProcessingParams(), **{key: value})


HETEROGENEOUS = WorkloadTable.heterogeneous()


@pytest.mark.parametrize("key,value,named", [
    ("w", {k: 30 * v for k, v in HETEROGENEOUS.w.items()},
     f"w[0, relay] is {30 * 0.1!r}; it must be a finite number in [0, 1]"),
    ("w", _but(HETEROGENEOUS.w, (1, LayerKind.OLT), -0.1),
     "w[1, olt] is -0.1; it must be a finite number in [0, 1]"),
    ("w", _but(HETEROGENEOUS.w, (2, LayerKind.ONU), 1.5),
     "w[2, onu] is 1.5; it must be a finite number in [0, 1]"),
    ("w", _but(HETEROGENEOUS.w, (3, LayerKind.GATEWAY), math.nan),
     "w[3, gateway] is nan; it must be a finite number in [0, 1]"),
    ("w", _but(HETEROGENEOUS.w, (2, LayerKind.OLT)),
     "w[2, olt] is None; it must be a finite number in [0, 1]"),
    ("w", {(0, LayerKind.RELAY): 0.1},
     "w[0, coordinator] is None; it must be a finite number in [0, 1]"),
    ("vm_types", 0, "vm_types is 0; it must be an integer >= 1"),
    ("vm_types", 2.5, "vm_types is 2.5; it must be an integer >= 1")],
    ids=["thirty-times", "negative", "above-one", "nan",
         "type-missing-a-layer", "one-fraction", "no-types",
         "fractional-types"])
def test_workload_table_refuses(key, value, named):
    with pytest.raises(pp.ModelError,
                       match="^" + re.escape(f"workloads.{named}") + "$"):
        dataclasses.replace(HETEROGENEOUS, **{key: value})


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("value", [2.5, "4"])
def test_for_scenario_refuses_non_integer_vm_types(scenario, value):
    with pytest.raises(pp.ModelError, match="^" + re.escape(
            f"workloads.vm_types is {value!r}; it must be an integer >= 1")
            + "$"):
        ModelParams.for_scenario(scenario, 0.5, vm_types=value)


def test_zero_reduction_identity():
    # f = 1: processed outflow of every cloudlet equals its unprocessed inflow
    inst = pp.build_instance(pp.TopologyConfig(
        networks=1, objects_per_network=4, relays_per_network=1))
    params = ModelParams.for_scenario(1, 0.0)
    res = pp.run_eepiv(inst, params)
    for c, out_rate in res.flows.pt_cl.items():
        inflow = sum(share for o in res.solution.assignment
                     for cc, share in res.solution.assignment[o] if cc == c)
        assert out_rate == pytest.approx(inflow, rel=1e-12)

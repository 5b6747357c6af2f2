import copy

import pytest

import ponplace as pp
from ponplace.milp import (BETA_BPS, MilpModel, build_model, emit_lp,
                           emit_mps, load_solution_values, parse_lp_summary,
                           solution_from_values, solve_exact,
                           validate_solution, write_solution_values)
from ponplace.power import ModelParams


@pytest.fixture(scope="module")
def chain():
    inst = pp.build_instance(pp.minimal_chain_config())
    params = ModelParams.for_scenario(1, 0.5, vm_types=1)
    return inst, params


@pytest.fixture(scope="module")
def chain_model(chain):
    inst, params = chain
    return build_model(inst, params)


class TestModelCounts:
    """Hand-audited expansion on the smallest instance: 1 object, 5
    candidates, 1 VM type.  Binary: Iv (5) + H (5).  Continuous: TW (5),
    xoc (5), xuf (5 candidates x 5 links = 25), xpc (5), xpf (4 non-OLT
    cloudlets x 4 candidate-graph links = 16), plus the 8 per-layer
    aggregate bookkeeping variables."""

    def test_variable_kinds(self, chain_model):
        counts = chain_model.counts()
        assert counts["binary"] == 10
        assert counts["continuous"] == 69

    def test_variable_families(self, chain_model):
        counts = chain_model.counts()
        assert counts["vars_Iv"] == 5
        assert counts["vars_H"] == 5
        assert counts["vars_TW"] == 5
        assert counts["vars_xoc"] == 5
        assert counts["vars_xuf"] == 25
        assert counts["vars_xpc"] == 4  # the OLT cloudlet emits no traffic
        assert counts["vars_xpf"] == 16

    def test_row_families(self, chain_model):
        counts = chain_model.counts()
        assert counts["constraints"] == 99
        assert counts["rows_d13"] == 1
        assert counts["rows_fc15"] == 30
        assert counts["rows_fc18"] == 20

    def test_reduced_scale_placement_variables(self, reduced_instance):
        params = ModelParams.for_scenario(1, 0.5)
        counts = build_model(reduced_instance, params).counts()
        assert counts["vars_H"] == 15
        assert counts["vars_Iv"] == 60

    def test_objective_touches_every_cost_carrier(self, chain_model):
        # costs live on the workloads and the per-layer traffic aggregates
        named = set(chain_model.objective)
        assert any(n.startswith("TW_") for n in named)
        assert any(n.startswith("lu_") for n in named)
        assert any(n.startswith("lp_") for n in named)


class TestEmission:
    def test_lp_round_trip(self, chain_model, tmp_path):
        path = emit_lp(chain_model, tmp_path / "chain.lp")
        summary = parse_lp_summary(path)
        assert summary["binary"] == 10
        assert summary["variables"] == len(chain_model.variables)
        assert summary["constraints"] == len(chain_model.rows)

    def test_lp_name_map(self, chain_model, tmp_path):
        emit_lp(chain_model, tmp_path / "chain.lp")
        names = (tmp_path / "chain.lp.names").read_text().splitlines()
        assert len(names) == len(chain_model.variables)
        assert all(len(line.split("\t")) == 2 for line in names)

    def test_mps_sections(self, chain_model, tmp_path):
        text = emit_mps(chain_model, tmp_path / "chain.mps").read_text()
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert text.count("INTORG") == 1 and text.count("INTEND") == 1

    def test_lp_big_m_constant(self, chain_model, tmp_path):
        text = emit_lp(chain_model, tmp_path / "chain.lp").read_text()
        assert f"{BETA_BPS:.12g}" in text  # linking big-M appears verbatim

    def test_empty_instance_model(self):
        inst = pp.build_instance(pp.minimal_chain_config(objects_per_network=0))
        params = ModelParams.for_scenario(1, 0.5, vm_types=1)
        model = build_model(inst, params)
        assert model.counts().get("rows_d13", 0) == 0


class TestValidation:
    def test_exact_solution_is_clean(self, chain):
        inst, params = chain
        sol, flows, report = solve_exact(inst, params)
        check = validate_solution(sol, flows, inst, params)
        assert check.ok
        assert check.objective_w == pytest.approx(report.total_w, rel=1e-12)

    def test_fault_injection_flags_touched_rows_only(self, chain):
        inst, params = chain
        sol, flows, _ = solve_exact(inst, params)
        broken = copy.deepcopy(flows)
        (o, c), com = next(iter(broken.upt_commodity.items()))
        pair = next(iter(com))
        com[pair] += 1.0
        broken.upt[pair] += 1.0
        check = validate_solution(sol, broken, inst, params)
        assert not check.ok
        families = {v.family for v in check.violations}
        assert families <= {"flow_conservation_unprocessed"}
        touched = {v.row for v in check.violations}
        assert touched == {f"fc15_{o}_{c}_{pair[0]}", f"fc15_{o}_{c}_{pair[1]}"}

    def test_missing_commodity_detected(self, chain):
        inst, params = chain
        sol, flows, _ = solve_exact(inst, params)
        broken = copy.deepcopy(flows)
        broken.upt_commodity.clear()
        broken.upt.clear()
        check = validate_solution(sol, broken, inst, params)
        assert any(v.row.endswith("_missing") for v in check.violations)

    def test_isolation_violation(self, reduced_instance):
        params = ModelParams.for_scenario(1, 0.5)
        inst = reduced_instance
        o = next(o for o in inst.objects() if inst.network_of(o) == 0)
        foreign = next(c for c in pp.candidate_nodes(inst)
                       if inst.network_of(c) == 1)
        v = inst.vm_request[o]
        sol = pp.PlacementSolution(
            placed=frozenset({(foreign, v)}),
            workload={foreign: params.workloads.workload(
                v, inst.layer(foreign))},
            assignment={o: [(foreign, params.demand_bps)]},
            layers={foreign: inst.layer(foreign)})
        check = validate_solution(sol, pp.FlowAssignment(), inst, params)
        assert any(v.family == "isolation" for v in check.violations)

    def test_report_csv(self, chain, tmp_path):
        inst, params = chain
        sol, flows, _ = solve_exact(inst, params)
        broken = copy.deepcopy(flows)
        next(iter(broken.upt_commodity.values()))[
            next(iter(broken.upt))] += 5.0
        check = validate_solution(sol, broken, inst, params)
        out = tmp_path / "violations.csv"
        check.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "constraint_family,row_id,residual"
        assert len(lines) == 1 + len(check.violations)


class TestSolutionRoundTrip:
    def test_two_column_round_trip(self, chain, tmp_path):
        inst, params = chain
        sol, flows, report = solve_exact(inst, params)
        path = write_solution_values(tmp_path / "sol.txt", sol, flows)
        sol2, flows2 = solution_from_values(
            load_solution_values(path), inst, params)
        assert sol2.placed == sol.placed
        check = validate_solution(sol2, flows2, inst, params)
        assert check.ok
        assert check.objective_w == pytest.approx(report.total_w, rel=1e-6)

    def test_round_trip_reduced_scale(self, reduced_instance, tmp_path):
        params = ModelParams.for_scenario(2, 0.5)
        sol, flows, report = solve_exact(reduced_instance, params)
        path = write_solution_values(tmp_path / "sol.txt", sol, flows)
        sol2, flows2 = solution_from_values(
            load_solution_values(path), reduced_instance, params)
        check = validate_solution(sol2, flows2, reduced_instance, params)
        assert check.ok
        assert check.objective_w == pytest.approx(report.total_w, rel=1e-6)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "vals.txt"
        path.write_text("# comment\n\nIv_3_0 1\nTW_3 0.1\n")
        values = load_solution_values(path)
        assert values == {"Iv_3_0": 1.0, "TW_3": 0.1}


class TestSolutionImportRejects:
    """Bad solution files fail at the offending ``path:line``."""

    def load_with(self, tmp_path, bad_line):
        path = tmp_path / "sol.txt"
        path.write_text(f"# exported\nIv_3_0 1\n{bad_line}\nTW_3 0.1\n")
        with pytest.raises(ValueError) as exc:
            load_solution_values(path)
        assert f"{path}:3: " in str(exc.value)
        return str(exc.value)

    @pytest.mark.parametrize("line", ["bogus_1_2 1", "xoc_0 5000",
                                      "xuf_0_1_2_x 1", "Iv 1"])
    def test_unknown_variable(self, tmp_path, line):
        assert "unknown variable" in self.load_with(tmp_path, line)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_non_finite_or_negative_value(self, tmp_path, value):
        message = self.load_with(tmp_path, f"xoc_0_50 {value}")
        assert "finite and >= 0" in message

    @pytest.mark.parametrize("line", ["Iv_1_0 1 extra", "Iv_1_0", "H_1 one"])
    def test_malformed_line(self, tmp_path, line):
        message = self.load_with(tmp_path, line)
        assert "expected 'variable value'" in message or \
            "not a number" in message

    def test_repeated_variable(self, tmp_path):
        assert "repeats line 2" in self.load_with(tmp_path, "Iv_3_0 1")

    def test_solver_round_off_and_aggregates_accepted(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("xuf_0_1_0_1 -1e-12\nlu_0_1 5000\nxovc_0_0_1 5000\n")
        assert load_solution_values(path)["xuf_0_1_0_1"] == -1e-12

    def test_mapping_checked_too(self, chain):
        inst, params = chain
        with pytest.raises(ValueError, match="unknown variable 'bogus_1_2'"):
            solution_from_values({"bogus_1_2": 1.0}, inst, params)
        with pytest.raises(ValueError, match="finite"):
            solution_from_values({"xoc_0_1": float("nan")}, inst, params)
        # the chain is object 0 -> relay 1 -> ... -> OLT 5, with one VM type
        for name in ("Iv_999_0", "Iv_1_1", "xuf_0_1_0_6", "lu_1_0",
                     "xpf_1_1_3"):
            with pytest.raises(ValueError, match="instance lacks"):
                solution_from_values({name: 1.0}, inst, params)

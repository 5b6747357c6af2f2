import copy
import hashlib
from pathlib import Path

import numpy as np
import pytest

import ponplace as pp
from ponplace.cli import main
from ponplace.experiments import topology_for_scale
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


def read_mps(path):
    """A free-format MPS file as ``(objective, rows, entries, binaries)``:
    ``{variable: coef}``, ``{row: [sense, rhs]}`` with senses E/L/G,
    ``{(row, variable): coef}`` and the set of binary variables, which must
    be both integer-marked and bounded ``BV``."""
    objective, rows, entries = {}, {}, {}
    marked, binaries = set(), set()
    section, integer = None, False
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        if not line.startswith(" "):
            section = fields[0]
        elif section == "ROWS":
            if fields[0] != "N":
                rows[fields[1]] = [fields[0], 0.0]
        elif section == "COLUMNS" and fields[1] == "'MARKER'":
            integer = fields[2] == "'INTORG'"
        elif section == "COLUMNS":
            var, row, coef = fields
            if integer:
                marked.add(var)
            if row == "obj":
                objective[var] = float(coef)
            else:
                entries[row, var] = float(coef)
        elif section == "RHS":
            rows[fields[1]][1] = float(fields[2])
        elif section == "BOUNDS":
            assert fields[:2] == ["BV", "BND"], line
            binaries.add(fields[2])
    assert marked == binaries
    return objective, rows, entries, binaries


def read_lp(path):
    """An emitted LP file in the shape ``read_mps`` returns."""
    def terms(tokens):
        sign, out = 1.0, {}
        while tokens:
            if tokens[0] in "+-":
                sign = -1.0 if tokens.pop(0) == "-" else 1.0
            coef, name = float(tokens.pop(0)), tokens.pop(0)
            if coef:
                out[name] = sign * coef
            sign = 1.0
        return out

    objective, rows, entries, binaries = {}, {}, {}, set()
    sections = {"Minimize", "Subject To", "Bounds", "Binary", "End"}
    section = None
    for line in Path(path).read_text().splitlines():
        if line in sections or line.startswith("\\"):
            section = line
        elif section == "Minimize":
            objective = terms(line.split(":", 1)[1].split())
        elif section == "Subject To":
            name, body = line.strip().split(": ", 1)
            *tokens, sense, rhs = body.split()
            rows[name] = [{"=": "E", "<=": "L", ">=": "G"}[sense], float(rhs)]
            entries.update({(name, v): c for v, c in terms(tokens).items()})
        elif section == "Binary":
            binaries.add(line.strip())
    return objective, rows, entries, binaries


def solve_mps(path) -> float:
    """Optimum of an emitted MPS model, solved by HiGHS at zero gap."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    objective, rows, entries, binaries = read_mps(path)
    names = sorted(set(objective) | {v for _, v in entries} | binaries)
    col = {v: j for j, v in enumerate(names)}
    at = {r: i for i, r in enumerate(rows)}
    matrix = csr_array((list(entries.values()),
                        ([at[r] for r, _ in entries], [col[v] for _, v in entries])),
                       shape=(len(rows), len(names)))
    rhs = np.array([value for _, value in rows.values()])
    senses = np.array([sense for sense, _ in rows.values()])
    lower = np.where(senses == "L", -np.inf, rhs)
    upper = np.where(senses == "G", np.inf, rhs)
    cost = np.array([objective.get(v, 0.0) for v in names])
    # HiGHS also stops within an absolute gap of 1e-6: scale the costs so
    # that gap is far below the tolerance asked of the optimum.
    scale = 1e6 / np.abs(cost).max()
    binary = np.array([v in binaries for v in names])
    res = milp(cost * scale, integrality=binary.astype(int),
               bounds=Bounds(0.0, np.where(binary, 1.0, np.inf)),
               constraints=LinearConstraint(matrix, lower, upper),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return res.fun / scale


def export_digests(directory) -> tuple[str, ...]:
    return tuple(hashlib.sha256((directory / name).read_bytes()).hexdigest()
                 for name in ("model.lp", "model.lp.names", "model.mps"))


class TestExportBytes:
    """The export is byte-stable: sha256 of ``model.lp``, ``model.lp.names``
    and ``model.mps`` as first emitted.  A change to either emitter or to
    the model that alters one byte fails here."""

    def test_minimal_chain(self, chain_model, tmp_path):
        emit_lp(chain_model, tmp_path / "model.lp")
        emit_mps(chain_model, tmp_path / "model.mps")
        assert export_digests(tmp_path) == (
            "06572aeafc213c094e534b356c1ec2771f9b0b9dd8e2c9b4b5018119bae3fbeb",
            "9cdf20750894619ef08066cb614c29b526f5923e2cd685b560eb82816189fee4",
            "2369fbd4fffce89bc492d31c055cacfae2a9bb07166a77db1c53f4821a3e65e1")

    @pytest.mark.parametrize("flags, digests", [
        (["--seed", "7", "--scenario", "1", "--reduction", "0.1"], (
            "30a72812c8ec117b5d119c4588fb7daef93f32b760f0661de896d6bb9ecc2ac9",
            "ebacbc214103e7d6fc1768c0672fccd2211e89ed5514a635429972045fa0786f",
            "469090fda133c1922713abf28a1ff1c0c7fb83c93fc25b68af8d6bb85542a330")),
        (["--seed", "12345", "--scenario", "3", "--reduction", "0.9",
          "--no-capacity"], (
            "9ef55b0c437f6c83f9e9bff2d9f20dca4f64588b3c3e77d4d994f4dc03a418d9",
            "ebacbc214103e7d6fc1768c0672fccd2211e89ed5514a635429972045fa0786f",
            "9859b7a6ee99554fb434d323f43b1c24b1c241a2e0cfa495e313aeeb4a549b1e")),
    ], ids=["seed7", "seed12345"])
    def test_reduced_export_lp(self, flags, digests, tmp_path, capsys):
        assert main(["export-lp", "--scale", "reduced", *flags, "--mps",
                     "--out", str(tmp_path)]) == 0
        assert export_digests(tmp_path) == digests


class TestExportSemantics:
    """The emitted files state the model: LP and MPS carry the same rows,
    coefficients, senses, right-hand sides and binaries as the model, and
    the MPS file's optimum is the exact engine's total."""

    @pytest.fixture(scope="class")
    def reduced(self):
        inst = pp.build_instance(topology_for_scale("reduced", 7))
        return inst, ModelParams.for_scenario(2, 0.3)

    @pytest.mark.parametrize("case", ["chain", "reduced"])
    def test_lp_and_mps_state_the_model(self, case, chain, reduced, tmp_path):
        inst, params = chain if case == "chain" else reduced
        model = build_model(inst, params)
        lp = read_lp(emit_lp(model, tmp_path / "model.lp"))
        mps = read_mps(emit_mps(model, tmp_path / "model.mps"))
        assert lp == mps
        objective, rows, entries, binaries = mps
        written = lambda x: float(f"{x:.12g}")  # 12 significant digits
        assert objective == {v: written(c)
                             for v, c in model.objective.items() if c}
        assert rows == {r.name: [{"=": "E", "<=": "L", ">=": "G"}[r.sense],
                                 written(r.rhs)] for r in model.rows}
        assert entries == {(r.name, v): written(c) for r in model.rows
                           for v, c in r.coeffs.items() if c}
        assert binaries == {v for v, var in model.variables.items()
                            if var.kind == "binary"}

    @pytest.mark.parametrize("case", ["chain", "reduced"])
    def test_mps_optimum_is_the_exact_total(self, case, chain, reduced,
                                            tmp_path):
        inst, params = chain if case == "chain" else reduced
        path = emit_mps(build_model(inst, params), tmp_path / "model.mps")
        _, _, report = solve_exact(inst, params)
        assert solve_mps(path) == pytest.approx(report.total_w, rel=1e-9)


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

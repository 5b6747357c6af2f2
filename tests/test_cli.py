import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ponplace as pp
from ponplace import cli
from ponplace.cli import _parse_seeds, main
from ponplace.experiments import REDUCED_SCALE_CONFIG


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_seeds():
    assert _parse_seeds("1,2,5") == (1, 2, 5)
    assert _parse_seeds("3..6") == (3, 4, 5, 6)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_flags(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(args) or 0)
    for argv in (["sweep", "--engine", "exact", "--engine", "eepiv",
                  "--seeds", "7,8", "--jobs", "2"],
                 ["sweep", "--engine", "eepiv"], ["sweep"],
                 ["heuristic", "--seed", "8", "--no-capacity"],
                 ["heuristic"]):
        assert main(argv) == 0
    first, second, third, fourth, fifth = map(vars, seen)
    assert (first["engines"], first["seeds"], first["jobs"]) == (
        ["exact", "eepiv"], "7,8", 2)
    assert (second["engines"], second["seeds"], second["jobs"]) == (
        ["eepiv"], None, 1)
    assert third["engines"] is None
    assert (fourth["seed"], fourth["no_capacity"]) == (8, True)
    assert (fifth["seed"], fifth["no_capacity"]) == (None, False)
    assert "engines" not in fifth
    assert cli.build_parser() is cli.build_parser()


def test_generate(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--scale", "reduced",
                       "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "nodes.csv").exists()
    assert (tmp_path / "edges.csv").exists()
    assert "nodes.csv" in out


GENERATE_SHA256 = {
    "reduced": {
        "edges.csv": "ad09fd0a9f1ac1d8e3b27be33a9ccc946cd5af2ca81d67bc072780a5d35753fe",
        "nodes.csv": "3f89d91740287bc87598a17ea6c9983aac576c512e1831391b2030b803f05656"},
    "paper": {
        "edges.csv": "68fa96e17b645d9a67eec1cce16c93a4f87e0cc77362934dea60952f2d397803",
        "nodes.csv": "848877de5b66d555629c4ba093773b39220870f41fba6234179e1be721024b62"}}


@pytest.mark.parametrize("scale", sorted(GENERATE_SHA256))
def test_generate_bytes_pinned(tmp_path, capsys, scale):
    code, _, _ = run(capsys, "generate", "--scale", scale, "--seed", "7",
                     "--out", str(tmp_path))
    assert code == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GENERATE_SHA256[scale]} == GENERATE_SHA256[scale]


def test_solve_reduced(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--scale", "reduced",
                       "--scenario", "2", "--reduction", "0.7",
                       "--out", str(tmp_path))
    assert code == 0
    assert "optimal total:" in out
    assert (tmp_path / "solution.txt").exists()


#: ``ponplace`` with each ``scipy.optimize.milp`` call's option names printed.
SHOW_HIGHS_OPTIONS = """\
import sys, scipy.optimize
from ponplace.cli import main
real = scipy.optimize.milp
def milp(*args, options, **kwargs):
    print("options:", *sorted(options))
    return real(*args, options=options, **kwargs)
scipy.optimize.milp = milp
sys.exit(main(sys.argv[1:]))
"""


def test_solve_writes_nothing_to_stderr(tmp_path):
    # a fresh interpreter has Python's default warning filters, which print
    # scipy's warning about a HiGHS option it does not document
    src = str(Path(pp.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SHOW_HIGHS_OPTIONS, "solve", "--scale",
         "reduced", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
    assert "mip_heuristic_run_feasibility_jump" in done.stdout
    assert done.stderr == ""


def test_solve_paper_scale_validates(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--scale", "paper",
                       "--out", str(tmp_path))
    assert code == 0
    assert "optimal total:" in out
    code, out, _ = run(capsys, "validate", "--scale", "paper",
                       "--solution", str(tmp_path / "solution.txt"),
                       "--out", str(tmp_path))
    assert code == 0
    assert "violations: 0" in out


def test_heuristic_and_validate_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "heuristic", "--scale", "paper",
                       "--out", str(tmp_path))
    assert code == 0
    assert "served 100 objects" in out
    code, out, _ = run(capsys, "validate", "--scale", "paper",
                       "--solution", str(tmp_path / "solution.txt"),
                       "--out", str(tmp_path))
    assert code == 0
    assert "violations: 0" in out
    assert (tmp_path / "validation.csv").exists()


def test_validate_flags_corrupted_solution(tmp_path, capsys):
    run(capsys, "heuristic", "--scale", "reduced", "--out", str(tmp_path))
    sol = tmp_path / "solution.txt"
    lines = sol.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("xoc_"):
            name, value = line.split()
            lines[i] = f"{name} {float(value) * 0.5}"
            break
    sol.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "validate", "--scale", "reduced",
                       "--solution", str(sol), "--out", str(tmp_path))
    assert code == 1
    assert "violations: 0" not in out


@pytest.mark.parametrize("line,err,rows", [
    ("TW_24 1.5", "", {"tw24_24", "cap_24"}),
    # node 28 is a coordinator that hosts no VM instance
    ("TW_28 0.3", "", {"tw24_28"}),
    # node 30 is network 0's ONU, node 29 its gateway
    ("xoc_30_29 1.0",
     "error: {where}: variable 'xoc_30_29' names onu node 30 as an object\n",
     None),
    # the reduced instance has nodes 0-62
    ("xuf_0_24_999_5 1.0", "error: {where}: variable 'xuf_0_24_999_5' names "
     "a node or VM type the instance lacks\n", None),
    ("Iv_24_0 0.7",
     "error: {where}: Iv_24_0 has value 0.7; a binary must be 0 or 1\n", None),
    # node 24 hosts the instances of network 0, node 25 none:
    # sum_v Iv - GAMMA H <= 0 (cl23) and sum_v Iv - H >= 0 (cl22) break
    ("H_24 0", "", {"cl23_24"}),
    ("H_25 1", "", {"cl22_25"}),
    # object 0 still sends its type-0 traffic to node 24 (lo20), whose
    # stated workload now exceeds its instances' (tw24)
    ("Iv_24_0 0", "", {"lo20_24_0", "tw24_24"}),
    # object 0's share at node 24 far above its demand and above BETA_BPS,
    # the most one instance carries (hi21)
    ("xoc_0_24 20000000.0", "",
     {"d13_0", "fc15_0_24_0", "fc15_0_24_24", "red17_24", "hi21_24_0"}),
    # node 24's processed flow on 0 -> 25, a link the uplink graph lacks
    ("xpf_24_0_25 1.0", "",
     {"fc18_24_offgraph_0_25", "fc18_24_0", "fc18_24_25"})],
    ids=["over-capacity", "workload-where-nothing-is-hosted", "onu-as-object",
         "node-the-instance-lacks", "fractional-binary", "hosting-cloudlet-closed",
         "empty-cloudlet-open", "traffic-to-a-closed-instance",
         "share-above-demand", "processed-flow-off-the-graph"])
def test_validate_reports_or_refuses_a_bad_file(tmp_path, capsys, line, err,
                                                rows):
    """The reduced heuristic's solution file with ``line`` in place of the
    line of the same variable: each broken row is in ``validation.csv``,
    or the import refuses the file and no ``validation.csv`` is written."""
    run(capsys, "heuristic", "--scale", "reduced", "--out", str(tmp_path))
    sol = tmp_path / "solution.txt"
    name = line.split()[0]
    lines = [old for old in sol.read_text().splitlines()
             if old.split()[0] != name]
    sol.write_text("\n".join(lines + [line]) + "\n")
    out = tmp_path / "check"
    code, _, stderr = run(capsys, "validate", "--scale", "reduced",
                          "--solution", str(sol), "--out", str(out))
    assert code == 1
    assert stderr == err.format(where=f"{sol}:{len(lines) + 1}")
    csv = out / "validation.csv"
    if rows is None:
        assert not csv.exists()
    else:
        assert {row.split(",")[1]
                for row in csv.read_text().splitlines()[1:]} == rows


def test_validate_without_opening_variables(tmp_path, capsys):
    """A file that states no ``H_c`` is judged by its ``Iv_c_v`` alone."""
    run(capsys, "heuristic", "--scale", "reduced", "--out", str(tmp_path))
    sol = tmp_path / "solution.txt"
    lines = [line for line in sol.read_text().splitlines()
             if not line.startswith("H_")]
    sol.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "validate", "--scale", "reduced",
                       "--solution", str(sol), "--out", str(tmp_path))
    assert code == 0
    assert "violations: 0" in out


def test_export_lp_with_mps(tmp_path, capsys):
    code, out, _ = run(capsys, "export-lp", "--scale", "reduced", "--mps",
                       "--out", str(tmp_path))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.lp",
                                                          "model.mps"]


def test_sweep(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--scale", "reduced",
                       "--scenarios", "1,2,3", "--reductions", "0.3,0.7",
                       "--engine", "eepiv", "--seeds", "7,8",
                       "--out", str(tmp_path))
    assert code == 0
    for name in ("sweep.csv", "placements.csv", "savings.csv"):
        assert (tmp_path / name).exists(), name


def test_sweep_partial_scenarios_skips_savings(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--scale", "reduced",
                       "--scenarios", "1", "--reductions", "0.5",
                       "--out", str(tmp_path))
    assert code == 0
    assert "savings skipped" in out
    assert not (tmp_path / "savings.csv").exists()


def test_bad_reduction_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--scale", "reduced",
                       "--reduction", "1.5", "--out", str(tmp_path / "nd"))
    assert code == 1
    assert "error:" in err
    assert not (tmp_path / "nd").exists()


def test_config_file(tmp_path, capsys):
    cfg = {"topology": {"networks": 1, "objects_per_network": 4,
                        "relays_per_network": 1, "vm_types": 2},
           "model": {"scenario": 2, "reduction_pct": 0.3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "solve", "--config", str(path),
                       "--scenario", "2", "--reduction", "0.3",
                       "--out", str(tmp_path))
    assert code == 0
    assert "optimal total:" in out


def test_config_with_scale_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"scenario": 2}}))
    code, out, err = run(capsys, "heuristic", "--config", str(path),
                         "--scale", "reduced", "--out", str(tmp_path / "nd"))
    assert code == 1
    assert "--scale" in err and "--config" in err
    assert not (tmp_path / "nd").exists()


@pytest.mark.parametrize("flag", [["--scenario", "3"], ["--reduction", "0.9"],
                                  ["--no-capacity"]],
                         ids=["scenario", "reduction", "no-capacity"])
def test_generate_refuses_model_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--scale", "reduced", *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "nodes.csv").exists()


def test_out_dir_from_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PONPLACE_OUT", str(tmp_path / "envout"))
    code, _, _ = run(capsys, "generate", "--scale", "reduced")
    assert code == 0
    assert (tmp_path / "envout" / "nodes.csv").exists()


def heuristic_line(config, scenario, reduction):
    res = pp.run_eepiv(pp.build_instance(config),
                       pp.ModelParams.for_scenario(scenario, reduction))
    return f"heuristic total: {res.report.total_w:.6f} W"


def test_config_model_section_is_used(tmp_path, capsys):
    cfg = {"topology": {"objects_per_network": 24, "relays_per_network": 4},
           "model": {"scenario": 3, "reduction_pct": 0.9}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "heuristic", "--config", str(path),
                       "--out", str(tmp_path))
    assert code == 0
    assert heuristic_line(REDUCED_SCALE_CONFIG, 3, 0.9) in out
    assert "16.696790 W" in out


def test_flags_override_config_only_when_given(tmp_path, capsys):
    cfg = {"topology": {"objects_per_network": 24, "relays_per_network": 4,
                        "rng_seed": 3},
           "model": {"scenario": 3, "reduction_pct": 0.9}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    seeded = pp.TopologyConfig(objects_per_network=24, relays_per_network=4,
                               rng_seed=3)
    code, out, _ = run(capsys, "heuristic", "--config", str(path),
                       "--scenario", "1", "--out", str(tmp_path))
    assert code == 0
    assert heuristic_line(seeded, 1, 0.9) in out
    code, out, _ = run(capsys, "heuristic", "--config", str(path),
                       "--reduction", "0.5", "--seed", "7",
                       "--out", str(tmp_path))
    assert code == 0
    assert heuristic_line(REDUCED_SCALE_CONFIG, 3, 0.5) in out


def test_config_unknown_model_key_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"scenaro": 3}}))
    code, _, err = run(capsys, "heuristic", "--config", str(path),
                       "--out", str(tmp_path))
    assert code == 1
    assert str(path) in err and "scenaro" in err


@pytest.mark.parametrize("text,named", [
    ('{"topology": {"networks": "two"}}',
     "topology.networks is 'two'; it must be an integer"),
    ('{"topology": {"objects_per_network": 2.5}}',
     "topology.objects_per_network is 2.5; it must be an integer"),
    ('{"model": {"reduction_pct": "0.5"}}',
     "model.reduction_pct is '0.5'; it must be a finite number"),
    ("[1, 2]", "the top level must be an object"),
    ('{"model": []}', "section 'model' must be an object"),
    ('{"model": {"capacity_enforced": "false"}}',
     "model.capacity_enforced is 'false'; it must be true or false"),
    ('{"model": {"demand_bps": -5}}',
     "model.demand_bps is -5; it must be a finite number > 0"),
    ('{"model": {"reduction_pct": 1.0}}',
     "model.reduction_pct is 1.0; it must be in [0, 1)"),
    ('{"topology": {"coordinator_xy": [1]}}',
     "topology.coordinator_xy is (1,); it must be None or a pair of finite "
     "numbers"),
    ('{"topology": {"networks": 2,}}', ":1: not JSON"),
    ('{"topology": {"relay_layout": "hex"}}',
     "topology.relay_layout is \"hex\"; it must be one of ['grid', 'line']"),
    ('{"model": {"scenario": 4}}', "model.scenario is 4; it must be 1, 2 or 3"),
    ('{"topolgy": {}}', "unknown sections ['topolgy']"),
    ('{"topology": {"networks": 0}}',
     "topology.networks is 0; it must be at least 1"),
    ('{"topology": {"relays_per_network": 3}}',
     "topology.relays_per_network is 3; it must be a perfect square in the "
     "grid layout"),
    ('{"topology": {"relay_spacing_m": 100.0}}',
     "topology.relay_spacing_m is 100.0; it must be small enough for a "
     "5 x 5 relay grid to fit in area_side_m 30.0"),
    ('{"topology": {"vm_types": 5}}',
     "topology.vm_types is 5; scenario 1's workload table defines 4 VM "
     "types"),
    ('{"topology": {"gateway_coordinator_distance_m": -100.0}}',
     "topology.gateway_coordinator_distance_m is -100.0; it must be >= 0"),
    ('{"topology": {"relay_spacing_m": -6.0}}',
     "topology.relay_spacing_m is -6.0; it must be >= 0"),
    ('{"topology": {"relay_layout": "line", "relays_per_network": 3, '
     '"relay_spacing_m": -50}}',
     "topology.relay_spacing_m is -50; it must be left out, as the line "
     "relay layout does not read it"),
    ('{"topology": {"rng_seed": true}}',
     "topology.rng_seed is True; it must be an integer"),
    ('{"topology": {"vm_types": "4"}}',
     "topology.vm_types is '4'; it must be an integer"),
    ('{"topology": {"request_assignment": "round_robin"}}',
     "unknown topology keys ['request_assignment']"),
    ('{"topology": {"area_side_m": 1%s}}' % ("0" * 400),
     "topology.area_side_m is 1%s; it must be a finite number" % ("0" * 400))],
    ids=["int-as-text", "fractional-int", "number-as-text", "not-an-object",
         "section-not-an-object", "bool-as-text", "negative-demand",
         "reduction-one",
         "short-pair", "syntax", "unknown-enum", "unknown-scenario",
         "unknown-section", "no-networks", "non-square-grid",
         "grid-too-wide", "vm-types-over-table", "negative-gateway-distance",
         "negative-relay-spacing", "line-layout-spacing", "bool-seed",
         "vm-types-as-text", "request-assignment", "side-beyond-float"])
def test_bad_config_names_file_and_key(tmp_path, capsys, text, named):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, "heuristic", "--config", str(path),
                         "--out", str(tmp_path / "nd"))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}") and named in err
    assert err.count("\n") == 1
    assert not (tmp_path / "nd").exists()


@pytest.mark.parametrize("flag,value,plural", [
    ("--scenario", "3", "--scenarios"), ("--reduction", "0.9", "--reductions"),
    ("--seed", "8", "--seeds")])
def test_sweep_rejects_single_value_flags(tmp_path, capsys, flag, value,
                                          plural):
    code, _, err = run(capsys, "sweep", "--scale", "reduced",
                       "--scenarios", "1", "--reductions", "0.5",
                       flag, value, "--out", str(tmp_path / "nd"))
    assert code == 1
    assert plural in err
    assert not (tmp_path / "nd").exists()


def test_sweep_rejects_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"scenario": 3}}))
    code, _, err = run(capsys, "sweep", "--config", str(path),
                       "--out", str(tmp_path / "nd"))
    assert code == 1
    assert "--config" in err
    assert not (tmp_path / "nd").exists()


@pytest.mark.parametrize("flags,named", [
    (["--engine", "lp-export"], "unknown engines"),
    (["--scenarios", "4"], "model.scenario is 4"),
    (["--reductions", "0.5,1.5"], "1.5"),
    (["--jobs", "0"], "jobs"),
    (["--scenarios", "1,1"], "scenarios lists 1 more than once"),
    (["--engine", "eepiv", "--engine", "eepiv"],
     "engines lists 'eepiv' more than once"),
    (["--seeds", "7,8,7"], "seeds lists 7 more than once"),
    (["--scenarios", "1,x"], "--scenarios '1,x': 'x' is not an integer"),
    (["--reductions", "0.1,,0.3"],
     "--reductions '0.1,,0.3': '' is not a number"),
    (["--seeds", "1..3..5"], "--seeds '1..3..5': a range is 'first..last'"),
    (["--seeds", "1..y"], "--seeds '1..y': 'y' is not an integer")],
    ids=["lp-export", "scenario", "reduction", "jobs", "repeated-scenario",
         "repeated-engine", "repeated-seed", "scenario-not-integer",
         "reduction-not-number", "seed-range-of-three", "seed-not-integer"])
def test_sweep_refusals_leave_no_directory(tmp_path, capsys, flags, named):
    code, _, err = run(capsys, "sweep", "--scale", "reduced", *flags,
                       "--out", str(tmp_path / "nd"))
    assert code == 1
    assert named in err
    assert not (tmp_path / "nd").exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--scale", "reduced", "--solution"], ["heuristic", "--config"]],
    ids=["validate-solution", "heuristic-config"])
def test_missing_input_file_exits_1(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    code, _, err = run(capsys, *argv, str(missing),
                       "--out", str(tmp_path / "nd"))
    assert code == 1
    assert err == f"error: {missing}: No such file or directory\n"
    assert not (tmp_path / "nd").exists()


def exact_cells_fail_alone(tmp_path, capsys, monkeypatch, error):
    """Run a reduced two-engine sweep whose exact engine raises ``error``
    and check that only its cells fail: their rows carry the error, the
    savings are skipped and the sweep exits 0.  Returns the stderr of a
    ``solve`` with the same engine, which must exit 1."""
    def failing(instance, params):
        raise error

    monkeypatch.setattr("ponplace.milp.solve_exact", failing)
    code, out, _ = run(capsys, "sweep", "--scale", "reduced",
                       "--scenarios", "1,2,3", "--reductions", "0.5",
                       "--engine", "eepiv", "--engine", "exact",
                       "--seeds", "7", "--jobs", "1", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("savings skipped: cell CellKey(scenario=1, "
                          "reduction=0.5, engine='exact', seed=7) "
                          f"failed: {error}\n")
    assert not (tmp_path / "savings.csv").exists()
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    failed = [row.split(",") for row in rows if ",exact," in row]
    assert [row[:4] for row in failed] == [[str(sc), "0.5", "exact", "7"]
                                           for sc in (1, 2, 3)]
    for row in failed:
        assert row[4:9] == [""] * 5
        assert row[9] == "0"
        assert row[11] == str(error)
    assert len(rows) == len(failed) + 3 * len(pp.LayerKind)

    code, _, err = run(capsys, "solve", "--scale", "reduced",
                       "--out", str(tmp_path / "solve"))
    assert code == 1
    return err


def test_resource_budget_fails_the_cell_not_the_sweep(tmp_path, capsys,
                                                      monkeypatch):
    """An exact engine that stops at its node limit fails its own cells,
    while ``solve`` exits 1 naming the budget."""
    message = "HiGHS stopped before proving optimality"
    err = exact_cells_fail_alone(tmp_path, capsys, monkeypatch,
                                 pp.ResourceBudgetError(message))
    assert err == f"error: resource-budget: {message}\n"


def test_infeasible_cell_fails_the_cell_not_the_sweep(tmp_path, capsys,
                                                      monkeypatch):
    """An exact cell with no feasible placement fails alone, as a cell out
    of budget does, while ``solve`` exits 1 naming the cause."""
    message = "no placement serves every object within the workload caps"
    err = exact_cells_fail_alone(tmp_path, capsys, monkeypatch,
                                 pp.InfeasibleError(message))
    assert err == f"error: {message}\n"

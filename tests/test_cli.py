import json

import pytest

import ponplace as pp
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


def test_generate(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--scale", "reduced",
                       "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "nodes.csv").exists()
    assert (tmp_path / "edges.csv").exists()
    assert "nodes.csv" in out


def test_solve_reduced(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--scale", "reduced",
                       "--scenario", "2", "--reduction", "0.7",
                       "--out", str(tmp_path))
    assert code == 0
    assert "optimal total:" in out
    assert (tmp_path / "solution.txt").exists()


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


def test_export_lp_with_mps(tmp_path, capsys):
    code, out, _ = run(capsys, "export-lp", "--scale", "reduced", "--mps",
                       "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "model.lp").exists()
    assert (tmp_path / "model.lp.names").exists()
    assert (tmp_path / "model.mps").exists()


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


def test_lp_export_only_sweep_skips_savings(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--scale", "reduced",
                       "--scenarios", "1,2,3", "--reductions", "0.5",
                       "--engine", "lp-export", "--out", str(tmp_path))
    assert code == 0
    assert "savings skipped: no engine in the sweep reports power" in out
    assert not (tmp_path / "savings.csv").exists()
    assert len(list(tmp_path.glob("model_s?_r50_seed7.lp"))) == 3


def test_bad_reduction_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--scale", "reduced",
                       "--reduction", "1.5", "--out", str(tmp_path))
    assert code == 1
    assert "error:" in err


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


@pytest.mark.parametrize("flag,value,plural", [
    ("--scenario", "3", "--scenarios"), ("--reduction", "0.9", "--reductions"),
    ("--seed", "8", "--seeds")])
def test_sweep_rejects_single_value_flags(tmp_path, capsys, flag, value,
                                          plural):
    code, _, err = run(capsys, "sweep", "--scale", "reduced",
                       "--scenarios", "1", "--reductions", "0.5",
                       flag, value, "--out", str(tmp_path))
    assert code == 1
    assert plural in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"scenario": 3}}))
    code, _, err = run(capsys, "sweep", "--config", str(path),
                       "--out", str(tmp_path))
    assert code == 1
    assert "--config" in err

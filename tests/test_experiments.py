import csv
from dataclasses import replace

import pytest

from ponplace.experiments import (CellKey, CellResult, SweepError, SweepResult,
                                  SweepSpec, run_sweep, savings_summary,
                                  topology_for_scale, write_placements_csv,
                                  write_savings_csv, write_sweep_csv)
from ponplace.power import PowerReport
from ponplace.topology import LayerKind


@pytest.fixture(scope="module")
def small_sweep():
    spec = SweepSpec(scenarios=(1, 2, 3), reductions=(0.3, 0.7),
                     engines=("eepiv",), seeds=(7, 8), scale="reduced")
    return run_sweep(spec)


def test_sweep_shape(small_sweep):
    assert len(small_sweep.cells) == 3 * 2 * 1 * 2
    for cell in small_sweep.cells.values():
        assert cell.error is None
        assert cell.served_count == 48
        assert cell.report.total_w > 0


def test_seed_mean(small_sweep):
    totals = [small_sweep.cell(1, 0.3, "eepiv", s).report.total_w
              for s in (7, 8)]
    assert small_sweep.seed_mean_total(1, 0.3, "eepiv") == pytest.approx(
        sum(totals) / 2)


def test_savings_rows(small_sweep):
    rows = savings_summary(small_sweep)
    summed = [r for r in rows if r["aggregation"] == "summed_over_r"]
    per_r = [r for r in rows if r["aggregation"] == "per_r"]
    assert len(summed) == 2 and len(per_r) == 2 * 2
    for row in summed:
        assert 0.0 < row["saving"] < 1.0
        assert row["reference_saving"] == 0.17


def test_savings_arithmetic():
    # hand-built result: scenario 1 at 81 W, scenarios 2 and 3 at 100 W
    spec = SweepSpec(scenarios=(1, 2, 3), reductions=(0.5,),
                     engines=("eepiv",), seeds=(7,))
    result = SweepResult(spec=spec)
    for sc, total in ((1, 81.0), (2, 100.0), (3, 100.0)):
        report = PowerReport(processing_w={k: 0.0 for k in LayerKind},
                             traffic_w_raw={k: 0.0 for k in LayerKind},
                             scaling_a=5.0, total_w=total)
        result.cells[CellKey(sc, 0.5, "eepiv", 7)] = CellResult(
            report=report, placements=[], served_count=0, wall_time_s=0.0)
    rows = savings_summary(result)
    for row in rows:
        assert row["saving"] == pytest.approx(0.19)


def test_savings_requires_all_scenarios():
    result = run_sweep(SweepSpec(scenarios=(1, 2), reductions=(0.5,),
                                 scale="reduced"))
    with pytest.raises(SweepError):
        savings_summary(result)


def test_savings_refuse_lp_export_only():
    only = SweepResult(spec=SweepSpec(engines=("lp-export",)))
    with pytest.raises(SweepError, match="no engine in the sweep reports"):
        savings_summary(only)
    mixed = SweepResult(spec=SweepSpec(engines=("eepiv", "lp-export")))
    with pytest.raises(SweepError, match="no engine in the sweep reports"):
        savings_summary(mixed, engine="lp-export")


def test_spec_validation():
    with pytest.raises(SweepError):
        SweepSpec(reductions=()).validate()
    with pytest.raises(SweepError):
        SweepSpec(engines=("simplex",)).validate()
    with pytest.raises(SweepError):
        SweepSpec(scale="huge").validate()


def test_parallel_matches_serial():
    spec = SweepSpec(scenarios=(1,), reductions=(0.3, 0.5),
                     engines=("eepiv", "exact"), seeds=(7, 8), scale="reduced")
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert list(serial.cells) == list(parallel.cells)
    for key, cell in serial.cells.items():
        assert replace(cell, wall_time_s=0.0) == \
            replace(parallel.cells[key], wall_time_s=0.0)


def test_exact_engine_runs_at_paper_scale():
    # criterion 2 (the heuristic never beats the optimum) at paper scale
    spec = SweepSpec(scenarios=(1, 2, 3), reductions=(0.1, 0.5, 0.9),
                     engines=("exact", "eepiv"), seeds=(1, 7), scale="paper")
    result = run_sweep(spec)
    for key, exact in result.cells.items():
        if key.engine != "exact":
            continue
        assert exact.error is None
        assert exact.served_count == exact.object_count
        eepiv = result.cell(key.scenario, key.reduction, "eepiv", key.seed)
        assert exact.report.total_w <= eepiv.report.total_w


def test_lp_export_engine(tmp_path):
    spec = SweepSpec(scenarios=(2,), reductions=(0.1,), engines=("lp-export",),
                     seeds=(7,), scale="reduced")
    result = run_sweep(spec, out_dir=tmp_path)
    cell = result.cell(2, 0.1, "lp-export", 7)
    assert cell.lp_path is not None and cell.lp_path.endswith(
        "model_s2_r10_seed7.lp")
    assert (tmp_path / "model_s2_r10_seed7.lp").exists()


def test_csv_outputs(small_sweep, tmp_path):
    write_sweep_csv(small_sweep, tmp_path / "sweep.csv")
    write_placements_csv(small_sweep, tmp_path / "placements.csv")
    write_savings_csv(savings_summary(small_sweep), tmp_path / "savings.csv")
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(small_sweep.cells) * len(LayerKind)
    assert rows[0]["layer"] and float(rows[0]["total_w"]) > 0
    with open(tmp_path / "placements.csv") as fh:
        prows = list(csv.DictReader(fh))
    assert all(r["hosted"] == "1" for r in prows)
    with open(tmp_path / "savings.csv") as fh:
        srows = list(csv.DictReader(fh))
    assert {r["aggregation"] for r in srows} == {"summed_over_r", "per_r"}


def test_processing_power_ordering_across_scenarios():
    # heavier CPU demands, then an inefficient OLT CPU, cost monotonically more
    spec = SweepSpec(scenarios=(1, 2, 3), reductions=(0.1,),
                     engines=("eepiv",), seeds=(7,), scale="paper")
    result = run_sweep(spec)
    proc = [sum(result.cell(sc, 0.1, "eepiv", 7).report.processing_w.values())
            for sc in (1, 2, 3)]
    assert proc[0] <= proc[1] + 1e-12 and proc[1] <= proc[2] + 1e-12


def test_topology_for_scale():
    paper = topology_for_scale("paper", 3)
    reduced = topology_for_scale("reduced", 3)
    assert paper.objects_per_network == 50 and paper.rng_seed == 3
    assert reduced.objects_per_network == 24 and reduced.rng_seed == 3


def test_savings_refuse_partially_served_cells():
    # scenario 1 looks cheaper only because it left 10 of 100 objects out
    spec = SweepSpec(scenarios=(1, 2, 3), reductions=(0.5,),
                     engines=("eepiv",), seeds=(7,))
    result = SweepResult(spec=spec)
    for sc, total, served in ((1, 70.0, 90), (2, 100.0, 100), (3, 100.0, 100)):
        report = PowerReport(processing_w={k: 0.0 for k in LayerKind},
                             traffic_w_raw={k: 0.0 for k in LayerKind},
                             scaling_a=5.0, total_w=total)
        result.cells[CellKey(sc, 0.5, "eepiv", 7)] = CellResult(
            report=report, placements=[], served_count=served,
            wall_time_s=0.0, object_count=100)
    with pytest.raises(SweepError, match=r"scenario=1.*served 90 of 100"):
        savings_summary(result)


def test_sweep_cells_carry_object_count(small_sweep):
    assert {c.object_count for c in small_sweep.cells.values()} == {48}


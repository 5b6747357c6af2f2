import csv
import re
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
        report = PowerReport(processing_w={LayerKind.RELAY: total},
                             traffic_w_raw={k: 0.0 for k in LayerKind},
                             scaling_a=5.0)
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


def test_spec_validation(tmp_path):
    with pytest.raises(SweepError):
        SweepSpec(reductions=())
    with pytest.raises(SweepError):
        SweepSpec(engines=("simplex",))
    with pytest.raises(SweepError, match="unknown engines"):
        SweepSpec(engines=("eepiv", "lp-export"))
    with pytest.raises(SweepError):
        SweepSpec(scale="huge")
    with pytest.raises(SweepError, match="model.scenario is 4; it must be "):
        SweepSpec(scenarios=(1, 4))
    for bad in (1.5, 1.0, -0.1):
        with pytest.raises(SweepError, match=f"model.reduction_pct is {bad}; "
                                             f"it must be in"):
            SweepSpec(reductions=(0.5, bad))
    # a repeated value would run its cells more than once
    for field, values, named in (("scenarios", (1, 2, 1), "1"),
                                 ("reductions", (0.5, 0.5), "0.5"),
                                 ("engines", ("eepiv", "eepiv"), "'eepiv'"),
                                 ("seeds", (7, 8, 8), "8")):
        with pytest.raises(SweepError, match=f"{field} lists {named} more"):
            replace(SweepSpec(scale="reduced"), **{field: values})
    # refused before any cell runs or the output directory is made
    for jobs in (0, -3):
        with pytest.raises(SweepError, match="jobs"):
            run_sweep(SweepSpec(scale="reduced"), out_dir=tmp_path / "nd",
                      jobs=jobs)
    with pytest.raises(SweepError):
        run_sweep(SweepSpec(scenarios=(4,)), out_dir=tmp_path / "nd")
    assert not (tmp_path / "nd").exists()


def test_replace_checks_spec():
    spec = SweepSpec(scale="reduced")
    with pytest.raises(SweepError, match="scenarios lists 1 more than once"):
        replace(spec, scenarios=(1, 1))
    with pytest.raises(SweepError, match="model.reduction_pct is 1.0"):
        replace(spec, reductions=(0.5, 1.0))


@pytest.mark.parametrize("key,value,named", [
    ("seeds", (7.5,), "topology.rng_seed is 7.5; it must be an integer"),
    ("seeds", (7, True), "topology.rng_seed is True; it must be an integer"),
    ("scenarios", (1, 2.0), "model.scenario is 2.0; it must be an integer"),
    ("scenarios", (True,), "model.scenario is True; it must be an integer"),
    ("capacity_enforced", "no",
     "model.capacity_enforced is 'no'; it must be true or false")])
def test_spec_refuses_wrong_types(key, value, named):
    # each value is checked by the record its cells build from it
    with pytest.raises(SweepError, match="^" + re.escape(named) + "$"):
        replace(SweepSpec(scale="reduced"), **{key: value})


def test_parallel_matches_serial():
    spec = SweepSpec(scenarios=(1,), reductions=(0.3, 0.5),
                     engines=("eepiv", "exact"), seeds=(7, 8), scale="reduced")
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert all(cell.error is None for cell in serial.cells.values())
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
        report = PowerReport(processing_w={LayerKind.RELAY: total},
                             traffic_w_raw={k: 0.0 for k in LayerKind},
                             scaling_a=5.0)
        result.cells[CellKey(sc, 0.5, "eepiv", 7)] = CellResult(
            report=report, placements=[], served_count=served,
            wall_time_s=0.0, object_count=100)
    with pytest.raises(SweepError, match=r"scenario=1.*served 90 of 100"):
        savings_summary(result)


def test_sweep_cells_carry_object_count(small_sweep):
    assert {c.object_count for c in small_sweep.cells.values()} == {48}


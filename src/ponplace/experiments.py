"""Scenario sweeps: build instances, run the engines over scenarios x
reduction percentages x seeds, and emit plot-ready CSV data plus the
scenario-1 savings summary."""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat
from pathlib import Path

from . import eepiv as eepiv_mod
from . import milp
from .power import ModelParams, PowerReport
from .topology import NetworkInstance, TopologyConfig, build_instance

DEFAULT_REDUCTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Small enough for the exhaustive placement search, large enough to show
#: the OLT-vs-relay consolidation switch: with fewer than ~6 objects per
#: type per network the duplicated-VM power always dominates the extra
#: uplink traffic and the homogeneous scenarios stay at the OLT for every
#: reduction value.
REDUCED_SCALE_CONFIG = TopologyConfig(networks=2, objects_per_network=24,
                                      relays_per_network=4, vm_types=4)

#: Reference savings reported for the evaluated setup, for side-by-side
#: comparison in the savings table.
REFERENCE_SAVINGS = {
    "exact": {"vs_scenario2": 0.17, "vs_scenario3": 0.19},
    "eepiv": {"vs_scenario2": 0.17, "vs_scenario3": 0.17},
}


class SweepError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    scenarios: tuple[int, ...] = (1, 2, 3)
    reductions: tuple[float, ...] = DEFAULT_REDUCTIONS
    engines: tuple[str, ...] = ("eepiv",)
    seeds: tuple[int, ...] = (7,)
    scale: str = "paper"  # "paper" | "reduced"
    capacity_enforced: bool = True

    def validate(self) -> None:
        if not self.scenarios or not self.reductions or not self.engines \
                or not self.seeds:
            raise SweepError("scenarios, reductions, engines and seeds "
                             "must all be non-empty")
        bad = set(self.engines) - {"exact", "eepiv", "lp-export"}
        if bad:
            raise SweepError(f"unknown engines {sorted(bad)}")
        if self.scale not in ("paper", "reduced"):
            raise SweepError(f"unknown scale {self.scale!r}")


def topology_for_scale(scale: str, seed: int) -> TopologyConfig:
    base = TopologyConfig() if scale == "paper" else REDUCED_SCALE_CONFIG
    return replace(base, rng_seed=seed)


@dataclass(frozen=True)
class CellKey:
    scenario: int
    reduction: float
    engine: str
    seed: int


@dataclass
class CellResult:
    report: PowerReport | None
    #: rows of (layer, network, vm_type) for each hosted instance.
    placements: list[tuple[str, int, int]]
    served_count: int
    wall_time_s: float
    error: str | None = None
    lp_path: str | None = None
    #: objects in the cell's instance; a report serving fewer is partial.
    object_count: int = 0


def _placement_rows(instance: NetworkInstance, solution) -> list[tuple[str, int, int]]:
    return sorted((instance.layer(c).value, instance.network_of(c), v)
                  for c, v in solution.placed)


@lru_cache(maxsize=1)
def _instance(scale: str, seed: int) -> NetworkInstance:
    """The instance of one topology seed.  Sweeps run their cells seed by
    seed, so a process builds each seed's instance, and the route table
    its cells share, once."""
    return build_instance(topology_for_scale(scale, seed))


def _run_cell(key: CellKey, scale: str, capacity_enforced: bool,
              out_dir: str | None) -> CellResult:
    instance = _instance(scale, key.seed)
    params = ModelParams.for_scenario(key.scenario, key.reduction,
                                      vm_types=instance.config.vm_types,
                                      capacity_enforced=capacity_enforced)
    objects = len(instance.objects())
    start = time.perf_counter()
    try:
        if key.engine == "eepiv":
            res = eepiv_mod.run_eepiv(instance, params)
            return CellResult(report=res.report,
                              placements=_placement_rows(instance, res.solution),
                              served_count=res.served_count,
                              wall_time_s=time.perf_counter() - start,
                              object_count=objects)
        if key.engine == "exact":
            solution, _, report = milp.solve_exact(instance, params)
            return CellResult(report=report,
                              placements=_placement_rows(instance, solution),
                              served_count=len(solution.assignment),
                              wall_time_s=time.perf_counter() - start,
                              object_count=objects)
        # lp-export: write the model instead of solving it.
        model = milp.build_model(instance, params)
        name = (f"model_s{key.scenario}_r{int(round(key.reduction * 100))}"
                f"_seed{key.seed}.lp")
        path = Path(out_dir or ".") / name
        milp.emit_lp(model, path)
        return CellResult(report=None, placements=[], served_count=0,
                          wall_time_s=time.perf_counter() - start,
                          lp_path=str(path), object_count=objects)
    except milp.ResourceBudgetError as exc:
        return CellResult(report=None, placements=[], served_count=0,
                          wall_time_s=time.perf_counter() - start,
                          error=str(exc), object_count=objects)


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: dict[CellKey, CellResult] = field(default_factory=dict)

    def cell(self, scenario, reduction, engine, seed) -> CellResult:
        return self.cells[CellKey(scenario, reduction, engine, seed)]

    def seed_mean_total(self, scenario: int, reduction: float,
                        engine: str) -> float:
        totals = [self.cells[CellKey(scenario, reduction, engine, s)].report.total_w
                  for s in self.spec.seeds]
        return sum(totals) / len(totals)


def run_sweep(spec: SweepSpec, out_dir: str | Path | None = None,
              jobs: int = 1) -> SweepResult:
    """Execute every (scenario, reduction, engine, seed) cell.  Cells are
    independent; with ``jobs > 1`` they run in worker processes and are
    merged by key, so the result is identical for any job count.  Cells
    run seed by seed, so that consecutive cells share one instance."""
    spec.validate()
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    keys = [CellKey(sc, r, eng, seed)
            for sc in spec.scenarios for r in spec.reductions
            for eng in spec.engines for seed in spec.seeds]
    order = sorted(keys, key=lambda key: spec.seeds.index(key.seed))
    args = (order, repeat(spec.scale), repeat(spec.capacity_enforced),
            repeat(str(out_dir) if out_dir is not None else None))
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                cells = dict(zip(order, pool.map(_run_cell, *args)))
        else:
            cells = dict(zip(order, map(_run_cell, *args)))
    finally:
        _instance.cache_clear()
    return SweepResult(spec=spec, cells={key: cells[key] for key in keys})


def savings_summary(result: SweepResult, engine: str | None = None) -> list[dict]:
    """Relative total-power saving of scenario 1 vs scenarios 2 and 3,
    seed-averaged, both summed over the reduction set and per reduction.
    Requires all three scenarios for the chosen engine(s), and an engine
    that reports power: ``lp-export`` writes models only."""
    engines = [e for e in ([engine] if engine else result.spec.engines)
               if e != "lp-export"]
    if not engines:
        raise SweepError("no engine in the sweep reports power; lp-export "
                         "writes models only")
    rows: list[dict] = []
    for eng in engines:
        missing = [sc for sc in (1, 2, 3) if sc not in result.spec.scenarios]
        if missing:
            raise SweepError(f"savings need scenarios 1-3; missing {missing}")
        for key, cell in result.cells.items():
            if key.engine != eng:
                continue
            if cell.report is None:
                raise SweepError(f"cell {key} failed: {cell.error}")
            if cell.served_count < cell.object_count:
                raise SweepError(f"cell {key} served {cell.served_count} of "
                                 f"{cell.object_count} objects; its total "
                                 f"leaves the rest out")
        totals = {sc: sum(result.seed_mean_total(sc, r, eng)
                          for r in result.spec.reductions)
                  for sc in (1, 2, 3)}
        ref = REFERENCE_SAVINGS.get(eng, {})
        for other in (2, 3):
            rows.append({
                "engine": eng, "aggregation": "summed_over_r",
                "reduction_pct": "",
                "baseline_scenario": other,
                "saving": (totals[other] - totals[1]) / totals[other],
                "reference_saving": ref.get(f"vs_scenario{other}", ""),
            })
        for r in result.spec.reductions:
            for other in (2, 3):
                s1 = result.seed_mean_total(1, r, eng)
                sx = result.seed_mean_total(other, r, eng)
                rows.append({
                    "engine": eng, "aggregation": "per_r",
                    "reduction_pct": r,
                    "baseline_scenario": other,
                    "saving": (sx - s1) / sx,
                    "reference_saving": "",
                })
    return rows


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """One row per cell per layer (PowerReport schema plus cell key)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "reduction_pct", "engine", "seed", "layer",
                    "processing_w", "traffic_w_raw", "traffic_w_scaled",
                    "total_w", "served_count", "wall_time_s", "error"])
        for key in sorted(result.cells, key=lambda k: (k.engine, k.scenario,
                                                       k.reduction, k.seed)):
            cell = result.cells[key]
            if cell.report is None:
                w.writerow([key.scenario, key.reduction, key.engine, key.seed,
                            "", "", "", "", "", cell.served_count,
                            f"{cell.wall_time_s:.4f}",
                            cell.error or cell.lp_path or ""])
                continue
            for rrow in cell.report.rows(key.scenario, key.reduction):
                w.writerow([key.scenario, key.reduction, key.engine, key.seed,
                            rrow["layer"], repr(rrow["processing_w"]),
                            repr(rrow["traffic_w_raw"]),
                            repr(rrow["traffic_w_scaled"]),
                            repr(rrow["total_w"]), cell.served_count,
                            f"{cell.wall_time_s:.4f}", ""])


def write_placements_csv(result: SweepResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "reduction_pct", "engine", "seed", "layer",
                    "network", "vm_type", "hosted"])
        for key in sorted(result.cells, key=lambda k: (k.engine, k.scenario,
                                                       k.reduction, k.seed)):
            for layer, network, vm_type in result.cells[key].placements:
                w.writerow([key.scenario, key.reduction, key.engine, key.seed,
                            layer, network, vm_type, 1])


def write_savings_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["engine", "aggregation",
                                           "reduction_pct",
                                           "baseline_scenario", "saving",
                                           "reference_saving"])
        w.writeheader()
        w.writerows(rows)

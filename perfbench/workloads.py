"""The benchmark's three closed-loop workloads: seeded inputs, the timed
call and the correctness gate.

Each workload turns the benchmark seed into an endless, deterministic
stream of inputs.  One input is one round of the closed loop: a single
client issues the next call only after the previous one returned.  Only
``run`` is timed; ``check`` runs afterwards and returns, for every cell the
round attempted, the list of problems found (empty when the cell passed).

Import this module only after ``checkout.use_checkout_source()``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass, replace
from pathlib import Path

from ponplace import cli, experiments, milp, topology
from ponplace.power import ModelParams

#: Relative tolerance between the validator's objective and the engine's
#: total, and between exact totals and their references.
REL_TOL = 1e-9
REDUCTIONS = experiments.DEFAULT_REDUCTIONS


def cell_id(scenario: int, reduction: float, topology_seed: int) -> str:
    return f"s{scenario}_r{reduction}_seed{topology_seed}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _topology_seeds(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, 2**31) for _ in range(n))


def _instance(scale: str, topology_seed: int):
    return topology.build_instance(
        experiments.topology_for_scale(scale, topology_seed))


def _params(instance, scenario: int, reduction: float) -> ModelParams:
    return ModelParams.for_scenario(scenario, reduction,
                                    vm_types=instance.config.vm_types)


def _validation_problems(solution, flows, instance, params,
                         engine_total: float) -> list[str]:
    report = milp.validate_solution(solution, flows, instance, params)
    problems = [f"violation {v.family} {v.row} residual={v.residual!r}"
                for v in report.violations[:3]]
    if _rel(report.objective_w, engine_total) > REL_TOL:
        problems.append(f"validator objective {report.objective_w!r} != "
                        f"engine total {engine_total!r}")
    return problems


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` over scenarios x reductions x a block of topology
    seeds per round, with the CSVs written as ``ponplace sweep`` writes
    them."""

    name: str
    engine: str
    scale: str
    seeds_per_round: int
    traced_rounds: int
    scenarios: tuple[int, ...] = (1, 2, 3)
    reductions: tuple[float, ...] = REDUCTIONS

    @property
    def engine_fn(self) -> str:
        return ("ponplace.eepiv.run_eepiv" if self.engine == "eepiv"
                else "ponplace.milp.solve_exact")

    @property
    def captured(self) -> tuple[str, ...]:
        return (self.engine_fn,)

    def smoke(self) -> "SweepWorkload":
        return replace(self, scenarios=(1,), reductions=(0.5,),
                       seeds_per_round=1, traced_rounds=1)

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield _topology_seeds(rng, self.seeds_per_round)

    def cells(self, block) -> list[tuple[int, float, int]]:
        return [(sc, r, s) for sc in self.scenarios for r in self.reductions
                for s in block]

    def cell_ids(self, block) -> list[str]:
        return [cell_id(*cell) for cell in self.cells(block)]

    def warm_up(self, seed: int, work: Path) -> None:
        """One cell through ``run_sweep``, on a topology seed of its own."""
        rng = random.Random(f"{self.name}:{seed}:warm-up")
        experiments.run_sweep(experiments.SweepSpec(
            scenarios=(1,), reductions=(0.5,), engines=(self.engine,),
            seeds=_topology_seeds(rng, 1), scale=self.scale))

    def run(self, block, work: Path):
        spec = experiments.SweepSpec(
            scenarios=self.scenarios, reductions=self.reductions,
            engines=(self.engine,), seeds=block, scale=self.scale)
        result = experiments.run_sweep(spec, out_dir=work, jobs=1)
        experiments.write_sweep_csv(result, work / "sweep.csv")
        experiments.write_placements_csv(result, work / "placements.csv")
        if set(self.scenarios) >= {1, 2, 3}:
            experiments.write_savings_csv(experiments.savings_summary(result),
                                          work / "savings.csv")
        return result

    def check(self, block, result, capture, refs: dict,
              work: Path) -> dict[str, list[str]]:
        answers = {}
        for args, kwargs, answer in capture.calls[self.engine_fn]:
            instance = args[0] if args else kwargs["instance"]
            params = args[1] if len(args) > 1 else kwargs["params"]
            answers[(params.scenario, params.reduction_pct,
                     instance.config.rng_seed)] = answer
        csv_totals = self._csv_totals(work / "sweep.csv")
        instances = {s: _instance(self.scale, s) for s in block}
        verdicts = {}
        for sc, r, s in self.cells(block):
            instance = instances[s]
            params = _params(instance, sc, r)
            verdicts[cell_id(sc, r, s)] = self._check_cell(
                result.cell(sc, r, self.engine, s), answers.get((sc, r, s)),
                instance, params, csv_totals.get((sc, r, s), []),
                refs.get(cell_id(sc, r, s)))
        return verdicts

    def _check_cell(self, cell, answer, instance, params, csv_totals,
                    ref) -> list[str]:
        if cell.report is None:
            return [f"cell failed: {cell.error}"]
        if answer is None:
            return [f"engine answer not captured: {self.engine_fn} was not "
                    f"called for this cell"]
        solution, flows = ((answer.solution, answer.flows)
                           if self.engine == "eepiv" else answer[:2])
        total = cell.report.total_w
        problems = []
        if cell.served_count != len(instance.objects()):
            problems.append(f"served {cell.served_count} of "
                            f"{len(instance.objects())} objects")
        if csv_totals != [repr(total)] * len(topology.LayerKind):
            problems.append(f"sweep.csv total_w rows {csv_totals} do not "
                            f"match {total!r}")
        problems += _validation_problems(solution, flows, instance, params,
                                         total)
        if ref is not None:
            off = total != ref if self.engine == "eepiv" else \
                _rel(total, ref) > REL_TOL
            if off:
                problems.append(f"total {total!r} != reference {ref!r}")
        return problems

    @staticmethod
    def _csv_totals(path: Path) -> dict[tuple[int, float, int], list[str]]:
        totals: dict[tuple[int, float, int], list[str]] = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["scenario"]), float(row["reduction_pct"]),
                       int(row["seed"]))
                totals.setdefault(key, []).append(row["total_w"])
        return totals


@dataclass(frozen=True)
class Case:
    """One round-trip round's inputs."""

    scenario: int
    reduction: float
    seed: int

    @property
    def id(self) -> str:
        return cell_id(self.scenario, self.reduction, self.seed)

    def flags(self, out: Path) -> list[str]:
        return ["--scale", "reduced", "--scenario", str(self.scenario),
                "--reduction", repr(self.reduction), "--seed", str(self.seed),
                "--out", str(out)]


@dataclass(frozen=True)
class RoundTripWorkload:
    """``ponplace export-lp --mps``, ``heuristic`` and ``validate`` on its
    ``solution.txt``, in process through ``ponplace.cli.main``."""

    name: str
    traced_rounds: int
    # The model is rebuilt by the gate rather than captured: holding it
    # would move its deallocation out of the timed round.
    captured = ("ponplace.eepiv.run_eepiv",)

    def smoke(self) -> "RoundTripWorkload":
        return replace(self, traced_rounds=2)

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield Case(rng.choice((1, 2, 3)), rng.choice(REDUCTIONS),
                       rng.randrange(1, 2**31))

    def warm_up(self, seed: int, work: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}:warm-up")
        self.run(Case(1, 0.5, rng.randrange(1, 2**31)), work)

    def run(self, case: Case, work: Path) -> list[int]:
        flags = case.flags(work)
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(["export-lp", *flags, "--mps"]),
                    cli.main(["heuristic", *flags]),
                    cli.main(["validate", *flags, "--solution",
                              str(work / "solution.txt")])]

    def check(self, case: Case, codes: list[int], capture, refs: dict,
              work: Path) -> dict[str, list[str]]:
        problems = [f"{command} exited {code}" for command, code
                    in zip(("export-lp", "heuristic", "validate"), codes)
                    if code != 0]
        instance = _instance("reduced", case.seed)
        params = _params(instance, case.scenario, case.reduction)

        counts = milp.build_model(instance, params).counts()
        expected = {"variables": counts["continuous"] + counts["binary"],
                    "binary": counts["binary"],
                    "constraints": counts["constraints"]}
        summary = milp.parse_lp_summary(work / "model.lp")
        if summary != expected:
            problems.append(f"model.lp counts {summary} != model {expected}")
        if (work / "model.mps").stat().st_size == 0:
            problems.append("model.mps is empty")

        runs = capture.calls["ponplace.eepiv.run_eepiv"]
        if not runs:
            return {case.id: problems + [
                "engine answer not captured: ponplace.eepiv.run_eepiv was "
                "not called"]}
        heuristic = runs[-1][2]
        if heuristic.served_count != len(instance.objects()):
            problems.append(f"served {heuristic.served_count} of "
                            f"{len(instance.objects())} objects")
        path = work / "solution.txt"
        values = milp.load_solution_values(path)
        solution, flows = milp.solution_from_values(values, instance, params)
        problems += _validation_problems(solution, flows, instance, params,
                                         heuristic.report.total_w)
        ref = refs.get(case.id)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if ref is not None and digest != ref:
            problems.append(f"solution.txt sha256 {digest} != reference {ref}")
        return {case.id: problems}

    @staticmethod
    def cell_ids(case: Case) -> list[str]:
        return [case.id]


WORKLOADS = {
    w.name: w for w in (
        SweepWorkload("paper_eepiv_sweep", engine="eepiv", scale="paper",
                      seeds_per_round=2, traced_rounds=2),
        SweepWorkload("reduced_exact_sweep", engine="exact", scale="reduced",
                      seeds_per_round=1, traced_rounds=1),
        RoundTripWorkload("reduced_export_roundtrip", traced_rounds=12),
    )
}


def get(name: str, smoke: bool = False):
    workload = WORKLOADS[name]
    return workload.smoke() if smoke else workload

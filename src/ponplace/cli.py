"""Batch command-line entry point.

Subcommands: generate (instance CSVs), solve (exact engine), heuristic,
export-lp, sweep, validate.  All randomness flows from --seed (--seeds in
sweep); flags override values from an optional --config JSON file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import eepiv as eepiv_mod
from . import experiments, milp
from .config import load_config
from .power import ModelParams
from .topology import TopologyConfig, build_instance, write_csv


def _value(flag: str, text: str, item: str, kind: type):
    """``item`` of ``--flag text`` as a ``kind``; a ValueError naming the
    flag and the item if it is not one."""
    try:
        return kind(item)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"--{flag} {text!r}: {item!r} is not {what}") \
            from None


def _parse_list(flag: str, text: str, kind: type) -> tuple:
    """The comma-separated values of ``--flag text``."""
    return tuple(_value(flag, text, item, kind) for item in text.split(","))


def _parse_seeds(text: str) -> tuple[int, ...]:
    """'1,2,5' or '1..10' (inclusive range)."""
    if ".." not in text:
        return _parse_list("seeds", text, int)
    bounds = text.split("..")
    if len(bounds) != 2:
        raise ValueError(f"--seeds {text!r}: a range is 'first..last', "
                         f"like '1..10'")
    lo, hi = (_value("seeds", text, bound, int) for bound in bounds)
    return tuple(range(lo, hi + 1))


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    # Flags default to None so that only the flags given override --config;
    # without a config the library's defaults apply.
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--scale", choices=["paper", "reduced"],
                   help="topology size (default paper); not with --config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None, help="output directory "
                   "(default $PONPLACE_OUT or current directory)")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    _add_topology_flags(p)
    p.add_argument("--scenario", type=int, choices=[1, 2, 3])
    p.add_argument("--reduction", type=float,
                   help="traffic reduction fraction in [0, 1)")
    p.add_argument("--no-capacity", action="store_true",
                   help="drop the per-cloudlet workload cap")


def _instance_and_params(args):
    if args.config:
        if args.scale is not None:
            raise ValueError("--scale and --config both give the topology; "
                             "use one of them")
        config, params = load_config(args.config)
    else:
        config = experiments.topology_for_scale(args.scale or "paper",
                                                TopologyConfig.rng_seed)
        params = ModelParams.for_scenario(vm_types=config.vm_types)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    params = ModelParams.for_scenario(
        params.scenario if args.scenario is None else args.scenario,
        params.reduction_pct if args.reduction is None else args.reduction,
        vm_types=config.vm_types, demand_bps=params.demand_bps,
        capacity_enforced=params.capacity_enforced and not args.no_capacity)
    return build_instance(config), params


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call's flags land in a namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="ponplace",
        description="Energy-aware VM/cloudlet placement over an IoT-PON network")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write instance nodes/edges CSVs")
    _add_topology_flags(p)
    p.set_defaults(scenario=None, reduction=None, no_capacity=False)

    p = sub.add_parser("solve", help="run the exact engine")
    _add_engine_flags(p)

    p = sub.add_parser("heuristic", help="run the greedy engine")
    _add_engine_flags(p)

    p = sub.add_parser("export-lp", help="write the model as an LP file")
    _add_engine_flags(p)
    p.add_argument("--mps", action="store_true", help="also write MPS")

    p = sub.add_parser("sweep", help="scenario/reduction/seed sweep")
    _add_engine_flags(p)
    p.add_argument("--scenarios", default="1,2,3")
    p.add_argument("--reductions", default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--engine", action="append", dest="engines",
                   help="exact or eepiv, repeatable (default eepiv)")
    p.add_argument("--seeds", default=None, help="'1,2,5' or '1..10'")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("validate", help="check an imported solution file")
    _add_engine_flags(p)
    p.add_argument("--solution", required=True, help="two-column "
                   "'variable value' file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except milp.ResourceBudgetError as exc:
        print(f"error: resource-budget: {exc}", file=sys.stderr)
        return 1
    except (milp.InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input file that cannot be read, or --out
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename
              else f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    # Every check runs before the output directory is made, so a refused
    # command leaves nothing behind.
    out = Path(args.out or os.environ.get("PONPLACE_OUT") or ".")
    if args.command == "sweep":
        if args.config:
            raise ValueError("sweep does not read --config; give the sweep "
                             "as flags")
        for flag, plural in (("scenario", "scenarios"),
                             ("reduction", "reductions"), ("seed", "seeds")):
            if getattr(args, flag) is not None:
                raise ValueError(f"sweep does not read --{flag}; use "
                                 f"--{plural}")
        spec = experiments.SweepSpec(
            scenarios=_parse_list("scenarios", args.scenarios, int),
            reductions=_parse_list("reductions", args.reductions, float),
            engines=tuple(args.engines or ["eepiv"]),
            seeds=(_parse_seeds(args.seeds) if args.seeds
                   else (TopologyConfig.rng_seed,)),
            scale=args.scale or "paper",
            capacity_enforced=not args.no_capacity)
        result = experiments.run_sweep(spec, jobs=args.jobs)
        out.mkdir(parents=True, exist_ok=True)
        experiments.write_sweep_csv(result, out / "sweep.csv")
        experiments.write_placements_csv(result, out / "placements.csv")
        try:
            rows = experiments.savings_summary(result)
            experiments.write_savings_csv(rows, out / "savings.csv")
        except experiments.SweepError as exc:
            print(f"savings skipped: {exc}")
        print(f"wrote {out / 'sweep.csv'}, {out / 'placements.csv'}")
        return 0

    instance, params = _instance_and_params(args)
    if args.command == "generate":
        write_csv(instance, out)
        print(f"wrote {out / 'nodes.csv'} and {out / 'edges.csv'}")
        return 0

    if args.command in ("solve", "heuristic"):
        exact = args.command == "solve"
        engine = milp.solve_exact if exact else eepiv_mod.run_eepiv
        res = engine(instance, params)
        out.mkdir(parents=True, exist_ok=True)
        milp.write_solution_values(out / "solution.txt", res.solution,
                                   res.flows)
        total = f"{res.report.total_w:.6f} W"
        print(f"optimal total: {total}" if exact else
              f"heuristic total: {total} (served {res.served_count} objects)")
        for (c, v) in sorted(res.solution.placed):
            print(f"  type {v} at node {c} ({instance.layer(c).value}, "
                  f"network {instance.network_of(c)})")
        return 0

    if args.command == "export-lp":
        model = milp.build_model(instance, params)
        out.mkdir(parents=True, exist_ok=True)
        lp = milp.emit_lp(model, out / "model.lp")
        print(f"wrote {lp}")
        if args.mps:
            mps = milp.emit_mps(model, out / "model.mps")
            print(f"wrote {mps}")
        return 0

    if args.command == "validate":
        values = milp.load_solution_values(args.solution)
        solution, flows = milp.solution_from_values(values, instance, params)
        report = milp.validate_solution(solution, flows, instance, params)
        out.mkdir(parents=True, exist_ok=True)
        report.write_csv(out / "validation.csv")
        print(f"objective: {report.objective_w:.6f} W; "
              f"violations: {len(report.violations)}")
        for v in report.violations[:20]:
            print(f"  {v.family} {v.row} residual={v.residual!r}")
        return 0 if report.ok else 1

    raise ValueError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

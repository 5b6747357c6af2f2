"""Acceptance suite: one criterion per test, each printing a single
PASS/FAIL line (run with ``pytest -s`` or read the captured output).

Tolerances:
  optimality gap vs the independent oracle   <= 1e-9 relative
  engine-vs-validator objective agreement    <= 1e-9 relative
  full-scale savings vs the reference points 17 +/- 5 percentage points
"""

import random
import statistics
import sys

import pytest

import ponplace as pp
from ponplace.eepiv import run_eepiv
from ponplace.milp import (build_model, emit_lp, parse_lp_summary,
                           solve_exact, validate_solution)
from ponplace.power import ModelParams
from ponplace.topology import LayerKind

from oracle import brute_force_optimum, corpus_case

CORPUS_SIZE = 200
SAVINGS_TARGET = 0.17
SAVINGS_TOL = 0.05


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    # also bypass pytest's capture so the line reaches the console log
    print(line, file=sys.__stdout__)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20240817)
    cases = []
    for _ in range(CORPUS_SIZE):
        inst, params = corpus_case(rng)
        _, _, exact_report = solve_exact(inst, params)
        cases.append((inst, params, exact_report))
    return cases


def test_criterion_1_exact_engine_matches_oracle(corpus):
    worst = 0.0
    for inst, params, exact_report in corpus:
        oracle = brute_force_optimum(inst, params)
        gap = abs(exact_report.total_w - oracle) / max(oracle, 1e-30)
        worst = max(worst, gap)
    report("1 exact-vs-oracle",
           worst <= 1e-9,
           f"{CORPUS_SIZE} instances, worst relative gap {worst:.3e}")


def test_criterion_2_heuristic_dominated_by_exact(corpus):
    gaps = []
    ok = True
    for inst, params, exact_report in corpus:
        heur = run_eepiv(inst, params)
        gap = (heur.report.total_w - exact_report.total_w) \
            / exact_report.total_w
        gaps.append(gap)
        if gap < -1e-9:
            ok = False
    report("2 heuristic-dominance", ok,
           f"median gap {statistics.median(gaps):+.2%}, "
           f"max {max(gaps):+.2%} over {len(gaps)} instances")


@pytest.fixture(scope="module")
def reduced_exact_cells(reduced_instance):
    cells = {}
    for scenario in (1, 2, 3):
        for r in (0.1, 0.5, 0.7, 0.9):
            params = ModelParams.for_scenario(scenario, r)
            sol, _, rep = solve_exact(reduced_instance, params)
            cells[(scenario, r)] = (sol, rep)
    return cells


def test_criterion_3a_high_reduction_pushes_to_relays(reduced_instance,
                                                      reduced_exact_cells):
    bad = []
    for (scenario, r), (sol, _) in reduced_exact_cells.items():
        if r < 0.5:
            continue
        layers = {reduced_instance.layer(c) for c, _ in sol.placed}
        if layers != {LayerKind.RELAY}:
            bad.append((scenario, r, sorted(k.value for k in layers)))
    report("3a relay-placement-at-high-reduction", not bad,
           "all VMs at relays for r >= 0.5 in every scenario"
           if not bad else f"non-relay hosts in {bad}")


def test_criterion_3b_low_reduction_olt_consolidation(reduced_instance,
                                                      reduced_exact_cells):
    s2_layers = [reduced_instance.layer(c)
                 for c, _ in reduced_exact_cells[(2, 0.1)][0].placed]
    s3_layers = [reduced_instance.layer(c)
                 for c, _ in reduced_exact_cells[(3, 0.1)][0].placed]
    s2_olt = sum(1 for k in s2_layers if k is LayerKind.OLT)
    s3_olt = sum(1 for k in s3_layers if k is LayerKind.OLT)
    ok = s2_olt >= 1 and s3_olt == 0
    report("3b olt-consolidation-switch", ok,
           f"scenario 2 r=0.1 hosts {s2_olt} VM(s) at the OLT; "
           f"scenario 3 (inefficient OLT CPU) hosts {s3_olt}")


@pytest.fixture(scope="module")
def paper_sweep():
    spec = pp.SweepSpec(scenarios=(1, 2, 3),
                        reductions=(0.1, 0.3, 0.5, 0.7, 0.9),
                        engines=("eepiv",), seeds=tuple(range(1, 11)),
                        scale="paper")
    return pp.run_sweep(spec)


def test_criterion_4_full_scale_savings(paper_sweep):
    rows = pp.savings_summary(paper_sweep)
    summed = {row["baseline_scenario"]: row["saving"] for row in rows
              if row["aggregation"] == "summed_over_r"}
    ok = all(abs(summed[sc] - SAVINGS_TARGET) <= SAVINGS_TOL for sc in (2, 3))
    per_seed = []
    for seed in paper_sweep.spec.seeds:
        totals = {sc: sum(paper_sweep.cell(sc, r, "eepiv", seed).report.total_w
                          for r in paper_sweep.spec.reductions)
                  for sc in (1, 2)}
        per_seed.append((totals[2] - totals[1]) / totals[2])
    report("4 full-scale-savings", ok,
           f"10-seed savings vs scenario 2: {summed[2]:.2%}, "
           f"vs scenario 3: {summed[3]:.2%} "
           f"(target {SAVINGS_TARGET:.0%} +/- {SAVINGS_TOL:.0%}); per-seed "
           f"spread {min(per_seed):.2%}..{max(per_seed):.2%}")


def test_criterion_5_monotone_in_reduction(reduced_exact_cells, paper_sweep):
    bad = []
    for scenario in (1, 2, 3):
        totals = [reduced_exact_cells[(scenario, r)][1].total_w
                  for r in (0.1, 0.5, 0.7, 0.9)]
        if any(a < b - 1e-12 for a, b in zip(totals, totals[1:])):
            bad.append(("exact-total", scenario, totals))
        traffic = [sum(paper_sweep.cell(scenario, r, "eepiv", 1)
                       .report.traffic_w_scaled().values())
                   for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        if any(a <= b for a, b in zip(traffic, traffic[1:])):
            bad.append(("heuristic-traffic", scenario, traffic))
    report("5 monotonicity-in-reduction", not bad,
           "exact totals non-increasing and heuristic traffic strictly "
           "decreasing in the reduction fraction"
           if not bad else f"violations: {bad}")


def test_criterion_6_model_audit(minimal_chain, tmp_path):
    params = ModelParams.for_scenario(1, 0.5, vm_types=1)
    model = build_model(minimal_chain, params)
    summary = parse_lp_summary(emit_lp(model, tmp_path / "audit.lp"))
    counts_ok = (summary["binary"] == 10
                 and summary["variables"] == 79
                 and summary["constraints"] == 99)

    # Independent hand computation from raw constants: host the single VM
    # at the relay, full demand object -> relay, half of it onward.
    inst = minimal_chain
    obj = inst.objects()[0]
    # each node of the chain has one out-link
    nxt = {src: dst for src, dst in inst.links}
    relay = nxt[obj]
    d2 = {}
    node = obj
    while node in nxt:
        dst = nxt[node]
        d2[(inst.layer(node).value, inst.layer(dst).value)] = \
            inst.links[node, dst][1] ** 2
        node = dst
    up_cost = (50e-9 + 255e-12 * d2[("object", "relay")]) + 5 * 50e-9
    down = (5 * (50e-9 + 255e-12 * d2[("relay", "coordinator")]) + 5 * 50e-9
            + 5 * (50e-9 + 255e-12 * d2[("coordinator", "gateway")]) + 60e-6
            + 15e-9 + 5 * 7.5e-9
            + 5 * 7.5e-9 + 5 * 225.6e-12)
    hand = 0.1 * 4.64 + 5000 * up_cost + 0.5 * 5000 * down

    sol, _, exact_report = solve_exact(inst, params)
    heur = run_eepiv(inst, params)
    obj_ok = (sol.placed == {(relay, 0)}
              and exact_report.total_w == pytest.approx(hand, rel=1e-9)
              and heur.report.total_w == pytest.approx(hand, rel=1e-9))
    report("6 model-audit", counts_ok and obj_ok,
           f"LP round-trip {summary}, hand objective {hand:.6f} W vs "
           f"exact {exact_report.total_w:.6f} / heuristic "
           f"{heur.report.total_w:.6f}")


def test_criterion_7_invariants(corpus):
    violations = []
    rng = random.Random(7)
    sample = rng.sample(corpus, 40)
    for inst, params, _ in sample:
        for engine in ("exact", "eepiv"):
            if engine == "exact":
                sol, flows, rep = solve_exact(inst, params)
            else:
                res = run_eepiv(inst, params)
                sol, flows, rep = res.solution, res.flows, res.report
            check = validate_solution(sol, flows, inst, params)
            if not check.ok:
                violations.append((engine, check.violations[:3]))
            if abs(check.objective_w - rep.total_w) > 1e-9 * rep.total_w:
                violations.append((engine, "objective mismatch"))
            # one instance per (network, type) among serving cloudlets
            seen = {}
            for o, shares in sol.assignment.items():
                key = (inst.network_of(o), inst.vm_request[o])
                for c, share in shares:
                    if share > 0 and seen.setdefault(key, c) != c:
                        violations.append((engine, f"split service {key}"))
    report("7 invariants", not violations,
           f"{len(sample)} instances x 2 engines: conservation, capacity, "
           "isolation, workload bookkeeping and single-instance service "
           "all clean" if not violations else f"{violations[:3]}")

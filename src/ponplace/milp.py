"""The placement MILP: symbolic model build, LP/MPS emission, the exact
engine, and a full constraint validator.

The exact engine solves a compact form of the model, not the emitted
arc-based one.  With linear per-bit costs each object is optimally served
by a single instance over a cheapest path, and processing cost depends only
on which (candidate, type) pairs are open, so the optimum is that of a
capacitated facility-location MILP, solved by HiGHS (``scipy.optimize.milp``):

    min  sum_{o,c} (d*up[o][c] + f*d*proc[c]) x[o,c]
           + sum_{c,v} workload(v,c)*Pmax(c) y[c,v]
    s.t. sum_c x[o,c] = 1                  every object o
         x[o,c] <= y[c,v(o)]               every visible, routable pair
         sum_v workload(v,c) y[c,v] <= 1   every candidate c, when enforced
         0 <= x <= 1,  y binary

where ``up[o][c]`` and ``proc[c]`` are the per-bit costs of the cheapest
object-to-candidate and candidate-to-OLT paths, ``d`` the demand and ``f``
the remaining traffic fraction.  Ties: lowest cost first, then each object
at its cheapest open candidate, exact ties to the smallest node id.  The
earlier exhaustive engine also took the lexicographically smallest
placement bit-vector among exact-cost ties; that rule is dropped, as it
decided only exact ties and changed no placement on 645 reduced-scale and
oracle-corpus instances.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .power import ModelParams, PowerReport, total_objective
from .routing import cheapest_path, cheapest_paths
from .solution import FlowAssignment, PlacementSolution, build_flows
from .topology import (LayerKind, NetworkInstance, OLT_NETWORK_ID,
                       candidate_nodes)

#: Big-M constants used in the emitted model (not by the native engines).
BETA_BPS = 1e7
GAMMA = 50.0


class ResourceBudgetError(RuntimeError):
    """HiGHS stopped, at the exact engine's node limit, before proving its
    answer optimal."""


class InfeasibleError(RuntimeError):
    """No placement serves every object: a VM type outside the workload
    table, or none within the workload caps."""


# ---------------------------------------------------------------------------
# Symbolic model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "continuous" | "binary"


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[str, float]
    sense: str  # "=", "<=", ">="
    rhs: float


@dataclass
class MilpModel:
    variables: dict[str, Variable]
    objective: dict[str, float]
    rows: list[Row]

    def counts(self) -> dict[str, int]:
        out = {
            "continuous": sum(1 for v in self.variables.values()
                              if v.kind == "continuous"),
            "binary": sum(1 for v in self.variables.values()
                          if v.kind == "binary"),
            "constraints": len(self.rows),
        }
        for row in self.rows:
            fam = row.name.split("_", 1)[0]
            out[f"rows_{fam}"] = out.get(f"rows_{fam}", 0) + 1
        for var in self.variables.values():
            fam = var.name.split("_", 1)[0]
            out[f"vars_{fam}"] = out.get(f"vars_{fam}", 0) + 1
        return out


def build_model(instance: NetworkInstance, params: ModelParams) -> MilpModel:
    """Expand variables and constraint families (demand split, flow
    conservation, traffic reduction, placement linking, cloudlet opening,
    workload bookkeeping) over the instance.

    Unprocessed commodity variables exist only for same-network
    (object, candidate) pairs plus the OLT; processed traffic lives on the
    candidate-only subgraph and the OLT-hosted cloudlet generates none.
    """
    if max(instance.vm_request.values(), default=0) >= params.workloads.vm_types:
        raise InfeasibleError("instance requests a VM type outside the table")
    cand = candidate_nodes(instance)
    olt = instance.olt_id
    cn = set(cand)
    vm_types = params.workloads.vm_types
    f = params.remaining_fraction

    variables: dict[str, Variable] = {}
    objective: dict[str, float] = {}
    rows: list[Row] = []

    def var(name: str, kind: str = "continuous") -> str:
        if name not in variables:
            variables[name] = Variable(name, kind)
        return name

    def row(name, coeffs, sense, rhs) -> None:
        rows.append(Row(name, coeffs, sense, rhs))

    # Placement binaries and workloads for every (candidate, type) pair.
    for c in cand:
        var(f"H_{c}", "binary")
        var(f"TW_{c}")
        for v in range(vm_types):
            var(f"Iv_{c}_{v}", "binary")

    # Per-network link sets for commodity expansion.
    net_ids = sorted({n.network_id for n in instance.nodes
                      if n.network_id != OLT_NETWORK_ID})
    net_nodes = {net: set(instance.network_node_ids(net)) for net in net_ids}
    net_links = {net: [ln for ln in instance.links
                       if ln.src in net_nodes[net] and ln.dst in net_nodes[net]]
                 for net in net_ids}

    from .power import link_cost_per_bit

    # Aggregate per-link traffic variables carry the whole traffic objective.
    for ln in instance.links:
        cost = link_cost_per_bit(ln, params)
        objective[var(f"lu_{ln.src}_{ln.dst}")] = cost
        if ln.src in cn and ln.dst in cn:
            objective[var(f"lp_{ln.src}_{ln.dst}")] = cost
    for c in cand:
        objective[f"TW_{c}"] = params.processing.max_power(instance.layer(c))

    # (13)/(14): demand split and per-cloudlet totals.
    for o in instance.objects():
        v = instance.vm_request[o]
        visible = instance.visible_candidates(o)
        row(f"d13_{o}",
            {var(f"xovc_{o}_{v}_{c}"): 1.0 for c in visible}, "=",
            params.demand_bps)
        for c in visible:
            row(f"a14_{o}_{c}",
                {var(f"xoc_{o}_{c}"): 1.0, f"xovc_{o}_{v}_{c}": -1.0},
                "=", 0.0)

    # (15)/(16): unprocessed per-commodity conservation and aggregation.
    agg_u: dict[tuple[int, int], list[str]] = {}
    for o in instance.objects():
        net = instance.network_of(o)
        for c in instance.visible_candidates(o):
            for ln in net_links[net]:
                name = var(f"xuf_{o}_{c}_{ln.src}_{ln.dst}")
                agg_u.setdefault((ln.src, ln.dst), []).append(name)
            for x in sorted(net_nodes[net]):
                coeffs: dict[str, float] = {}
                for ln in instance.out_links[x]:
                    if ln.dst in net_nodes[net]:
                        coeffs[f"xuf_{o}_{c}_{x}_{ln.dst}"] = 1.0
                for ln in instance.in_links[x]:
                    if ln.src in net_nodes[net]:
                        coeffs[f"xuf_{o}_{c}_{ln.src}_{x}"] = -1.0
                if x == o:
                    coeffs[f"xoc_{o}_{c}"] = -1.0
                elif x == c:
                    coeffs[f"xoc_{o}_{c}"] = 1.0
                row(f"fc15_{o}_{c}_{x}", coeffs, "=", 0.0)
    for ln in instance.links:
        coeffs = {f"lu_{ln.src}_{ln.dst}": 1.0}
        for name in agg_u.get((ln.src, ln.dst), []):
            coeffs[name] = -1.0
        row(f"ag16_{ln.src}_{ln.dst}", coeffs, "=", 0.0)

    # (17)-(19): traffic reduction and processed-commodity conservation.
    agg_p: dict[tuple[int, int], list[str]] = {}
    for c in cand:
        if c == olt:
            continue
        net = instance.network_of(c)
        coeffs = {var(f"xpc_{c}"): 1.0}
        for o in instance.objects():
            if instance.network_of(o) == net:
                coeffs[f"xoc_{o}_{c}"] = -f
        row(f"red17_{c}", coeffs, "=", 0.0)
        cn_net = (net_nodes[net] & cn) | {olt}
        cn_links = [ln for ln in net_links[net]
                    if ln.src in cn_net and ln.dst in cn_net]
        for ln in cn_links:
            name = var(f"xpf_{c}_{ln.src}_{ln.dst}")
            agg_p.setdefault((ln.src, ln.dst), []).append(name)
        for x in sorted(cn_net):
            coeffs = {}
            for ln in instance.out_links[x]:
                if ln.dst in cn_net:
                    coeffs[f"xpf_{c}_{x}_{ln.dst}"] = 1.0
            for ln in instance.in_links[x]:
                if ln.src in cn_net:
                    coeffs[f"xpf_{c}_{ln.src}_{x}"] = -1.0
            if x == c:
                coeffs[f"xpc_{c}"] = -1.0
            elif x == olt:
                coeffs[f"xpc_{c}"] = 1.0
            row(f"fc18_{c}_{x}", coeffs, "=", 0.0)
    for ln in instance.links:
        if ln.src in cn and ln.dst in cn:
            coeffs = {f"lp_{ln.src}_{ln.dst}": 1.0}
            for name in agg_p.get((ln.src, ln.dst), []):
                coeffs[name] = -1.0
            row(f"ag19_{ln.src}_{ln.dst}", coeffs, "=", 0.0)

    # (20)-(24): placement linking, cloudlet opening, workload bookkeeping.
    for c in cand:
        for v in range(vm_types):
            senders = [o for o in instance.objects()
                       if instance.vm_request[o] == v
                       and c in instance.visible_candidates(o)]
            coeffs = {f"xovc_{o}_{v}_{c}": 1.0 for o in senders}
            coeffs[f"Iv_{c}_{v}"] = -1.0
            row(f"lo20_{c}_{v}", coeffs, ">=", 0.0)
            coeffs = {f"xovc_{o}_{v}_{c}": 1.0 for o in senders}
            coeffs[f"Iv_{c}_{v}"] = -BETA_BPS
            row(f"hi21_{c}_{v}", coeffs, "<=", 0.0)
        iv = {f"Iv_{c}_{v}": 1.0 for v in range(vm_types)}
        row(f"cl22_{c}", {**iv, f"H_{c}": -1.0}, ">=", 0.0)
        row(f"cl23_{c}", {**iv, f"H_{c}": -GAMMA}, "<=", 0.0)
        tw = {f"Iv_{c}_{v}": params.workloads.workload(v, instance.layer(c))
              for v in range(vm_types)}
        row(f"tw24_{c}", {**tw, f"TW_{c}": -1.0}, "=", 0.0)
        if params.capacity_enforced:
            row(f"cap_{c}", {f"TW_{c}": 1.0}, "<=", 1.0)

    return MilpModel(variables=variables, objective=objective, rows=rows)


# ---------------------------------------------------------------------------
# LP / MPS emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_lp(model: MilpModel, path: str | Path, name_map: bool = True) -> Path:
    """Write the model in CPLEX LP format (one constraint per line) and a
    companion ``<path>.names`` variable map."""
    path = Path(path)
    lines = ["\\ placement model", "Minimize"]
    terms = [f"{_fmt(c)} {n}" for n, c in sorted(model.objective.items()) if c]
    lines.append(" obj: " + " + ".join(terms))
    lines.append("Subject To")
    sense_txt = {"=": "=", "<=": "<=", ">=": ">="}
    for row in model.rows:
        parts = []
        for name, coef in sorted(row.coeffs.items()):
            if coef == 0.0:
                continue
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {_fmt(abs(coef))} {name}")
        body = " ".join(parts).lstrip("+ ") or "0 nothing"
        lines.append(f" {row.name}: {body} {sense_txt[row.sense]} {_fmt(row.rhs)}")
    lines.append("Bounds")  # defaults: continuous >= 0, binaries in section
    lines.append("Binary")
    for v in sorted(model.variables):
        if model.variables[v].kind == "binary":
            lines.append(f" {v}")
    lines.append("End")
    path.write_text("\n".join(lines) + "\n")
    if name_map:
        with open(path.with_suffix(path.suffix + ".names"), "w") as fh:
            for v in sorted(model.variables):
                fh.write(f"{v}\t{model.variables[v].kind}\n")
    return path


def emit_mps(model: MilpModel, path: str | Path) -> Path:
    """Fixed-free MPS emission, equivalent to the LP file."""
    path = Path(path)
    sense_mps = {"=": "E", "<=": "L", ">=": "G"}
    lines = ["NAME placement", "ROWS", " N  obj"]
    for row in model.rows:
        lines.append(f" {sense_mps[row.sense]}  {row.name}")
    lines.append("COLUMNS")
    by_var: dict[str, list[tuple[str, float]]] = {v: [] for v in model.variables}
    for name, coef in model.objective.items():
        by_var[name].append(("obj", coef))
    for row in model.rows:
        for name, coef in row.coeffs.items():
            if coef:
                by_var[name].append((row.name, coef))
    in_int = False
    for v in sorted(model.variables):
        is_bin = model.variables[v].kind == "binary"
        if is_bin and not in_int:
            lines.append("    MARKER                 'MARKER'                 'INTORG'")
            in_int = True
        if not is_bin and in_int:
            lines.append("    MARKER                 'MARKER'                 'INTEND'")
            in_int = False
        for rname, coef in by_var[v]:
            lines.append(f"    {v}  {rname}  {_fmt(coef)}")
    if in_int:
        lines.append("    MARKER                 'MARKER'                 'INTEND'")
    lines.append("RHS")
    for row in model.rows:
        if row.rhs:
            lines.append(f"    RHS  {row.name}  {_fmt(row.rhs)}")
    lines.append("BOUNDS")
    for v in sorted(model.variables):
        if model.variables[v].kind == "binary":
            lines.append(f" BV BND  {v}")
    lines.append("ENDATA")
    path.write_text("\n".join(lines) + "\n")
    return path


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_lp_summary(path: str | Path) -> dict[str, int]:
    """Token-level round-trip: recover variable/constraint counts from an
    emitted LP file."""
    section = None
    names: set[str] = set()
    binaries: set[str] = set()
    n_rows = 0
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "maximize", "subject to", "bounds", "binary", "end"):
            section = low
            continue
        tokens = [t.rstrip(":") for t in line.split()]
        tokens = [t for t in tokens if _NAME_RE.match(t) and t != "obj"]
        if section == "subject to":
            if ":" in line:
                n_rows += 1
                tokens = tokens[1:]  # first token is the row name
        if section == "binary":
            binaries.update(tokens)
        names.update(tokens)
    return {"variables": len(names), "binary": len(binaries),
            "constraints": n_rows}


# ---------------------------------------------------------------------------
# Solution import/export (two-column `variable value` text)
# ---------------------------------------------------------------------------

def write_solution_values(path: str | Path, solution: PlacementSolution,
                          flows: FlowAssignment) -> Path:
    """Export a native solution in the importable two-column format."""
    path = Path(path)
    with open(path, "w") as fh:
        for c, v in sorted(solution.placed):
            fh.write(f"Iv_{c}_{v} 1\n")
        for c in sorted(solution.cloudlet_open()):
            fh.write(f"H_{c} 1\n")
        for c, tw in sorted(solution.workload.items()):
            fh.write(f"TW_{c} {tw!r}\n")
        for o in sorted(solution.assignment):
            for c, share in solution.assignment[o]:
                fh.write(f"xoc_{o}_{c} {share!r}\n")
        for (o, c), com in sorted(flows.upt_commodity.items()):
            for (x, y), rate in sorted(com.items()):
                fh.write(f"xuf_{o}_{c}_{x}_{y} {rate!r}\n")
        for c, rate in sorted(flows.pt_cl.items()):
            fh.write(f"xpc_{c} {rate!r}\n")
        for c, com in sorted(flows.pt_commodity.items()):
            for (x, y), rate in sorted(com.items()):
                fh.write(f"xpf_{c}_{x}_{y} {rate!r}\n")
    return path


#: Variable families of the model and what each index names: a node (n)
#: or a VM type (v).  ``xuf_o_c_x_y`` names four nodes.
VARIABLE_INDICES = {"Iv": "nv", "H": "n", "TW": "n", "xoc": "nn",
                    "xovc": "nvn", "xuf": "nnnn", "xpc": "n", "xpf": "nnn",
                    "lu": "nn", "lp": "nn"}
#: Families whose last two indices are the ends of a link.
LINK_FAMILIES = ("xuf", "xpf", "lu", "lp")

#: Imported values may carry solver round-off down to this much below 0.
NEGATIVE_TOL = 1e-9


def _variable_problem(name: str, value: float) -> str | None:
    """Why ``name value`` cannot be a value of the model, or None."""
    tag, *indices = name.split("_")
    kinds = VARIABLE_INDICES.get(tag, "")
    if len(kinds) != len(indices) or not all(i.isdigit() for i in indices):
        return f"unknown variable {name!r}"
    if not math.isfinite(value) or value < -NEGATIVE_TOL:
        return f"{name} has value {value!r}; values must be finite and >= 0"
    return None


def _index_problem(name: str, instance: NetworkInstance,
                   vm_types: int) -> str | None:
    """Why the well-formed variable ``name`` is not one of this instance's
    model, or None."""
    tag, *indices = name.split("_")
    ids = [int(i) for i in indices]
    sizes = {"n": len(instance.nodes), "v": vm_types}
    if any(i >= sizes[k] for k, i in zip(VARIABLE_INDICES[tag], ids)):
        return f"variable {name!r} names a node or VM type the instance lacks"
    if tag in LINK_FAMILIES and tuple(ids[-2:]) not in instance.link_by_pair:
        return f"variable {name!r} names a link the instance lacks"
    return None


def load_solution_values(path: str | Path) -> dict[str, float]:
    """Read a two-column ``variable value`` file.  Blank lines and ``#``
    comments are skipped; anything else that is not a known variable with
    a finite, nonnegative value fails, naming ``path:line``."""
    values: dict[str, float] = {}
    seen: dict[str, int] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{number}"
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"{where}: expected 'variable value', "
                             f"got {line!r}")
        name, text = tokens
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{where}: value {text!r} is not a number") \
                from None
        problem = _variable_problem(name, value)
        if problem is None and name in seen:
            problem = f"{name} repeats line {seen[name]}"
        if problem is not None:
            raise ValueError(f"{where}: {problem}")
        seen[name] = number
        values[name] = value
    return values


def solution_from_values(values: dict[str, float], instance: NetworkInstance,
                         params: ModelParams,
                         tol: float = 1e-6) -> tuple[PlacementSolution, FlowAssignment]:
    """Rebuild a placement and flow assignment from imported variable
    values (native export or an external solver's answer).  Values of the
    aggregate families (``xovc``, ``lu``, ``lp``) are accepted and
    recomputed from the per-commodity ones."""
    for name, value in values.items():
        problem = (_variable_problem(name, value)
                   or _index_problem(name, instance, params.workloads.vm_types))
        if problem is not None:
            raise ValueError(problem)
    placed = set()
    workload: dict[int, float] = {}
    assignment: dict[int, list[tuple[int, float]]] = {}
    flows = FlowAssignment()
    for name, value in values.items():
        parts = name.split("_")
        tag = parts[0]
        if tag == "Iv" and value > 0.5:
            placed.add((int(parts[1]), int(parts[2])))
        elif tag == "TW":
            workload[int(parts[1])] = value
        elif tag == "xoc" and value > tol:
            assignment.setdefault(int(parts[1]), []).append((int(parts[2]), value))
        elif tag == "xuf" and value > tol:
            o, c, x, y = map(int, parts[1:])
            flows.upt_commodity.setdefault((o, c), {})[(x, y)] = value
            flows.upt[(x, y)] = flows.upt.get((x, y), 0.0) + value
        elif tag == "xpc" and value > tol:
            flows.pt_cl[int(parts[1])] = value
        elif tag == "xpf" and value > tol:
            c, x, y = map(int, parts[1:])
            flows.pt_commodity.setdefault(c, {})[(x, y)] = value
            flows.pt[(x, y)] = flows.pt.get((x, y), 0.0) + value
    workload = {c: tw for c, tw in workload.items() if tw > tol or
                any(pc == c for pc, _ in placed)}
    layers = {c: instance.layer(c) for c, _ in placed}
    solution = PlacementSolution(placed=frozenset(placed), workload=workload,
                                 assignment=assignment, layers=layers)
    return solution, flows


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

FLOW_TOL_BPS = 1e-6


@dataclass(frozen=True)
class Violation:
    family: str
    row: str
    residual: float


@dataclass
class ValidationReport:
    violations: list[Violation]
    objective_w: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write("constraint_family,row_id,residual\n")
            for v in self.violations:
                fh.write(f"{v.family},{v.row},{v.residual!r}\n")


def validate_solution(solution: PlacementSolution, flows: FlowAssignment,
                      instance: NetworkInstance, params: ModelParams,
                      tol: float = FLOW_TOL_BPS) -> ValidationReport:
    """Check every constraint family against the given solution and flows
    and recompute the objective independently of the producing engine."""
    bad: list[Violation] = []

    def check(family: str, row: str, residual: float, limit: float = tol):
        if abs(residual) > limit:
            bad.append(Violation(family, row, residual))

    objects = instance.objects()
    olt = instance.olt_id
    f = params.remaining_fraction

    # Demand split: every object's shares sum to its demand.
    for o in objects:
        total = sum(share for _, share in solution.assignment.get(o, []))
        check("demand", f"d13_{o}", total - params.demand_bps)

    # Per-commodity unprocessed conservation.
    share_of = {(o, c): share for o in solution.assignment
                for c, share in solution.assignment[o]}
    for (o, c), com in flows.upt_commodity.items():
        share = share_of.get((o, c), 0.0)
        net = {}
        for (x, y), rate in com.items():
            net[x] = net.get(x, 0.0) + rate
            net[y] = net.get(y, 0.0) - rate
        for x in set(net) | {o, c}:
            expected = share if x == o else -share if x == c else 0.0
            check("flow_conservation_unprocessed", f"fc15_{o}_{c}_{x}",
                  net.get(x, 0.0) - expected)
    for (o, c) in share_of:
        if share_of[(o, c)] > tol and (o, c) not in flows.upt_commodity and o != c:
            bad.append(Violation("flow_conservation_unprocessed",
                                 f"fc15_{o}_{c}_missing", share_of[(o, c)]))

    # Aggregate consistency on each link.
    agg = {}
    for com in flows.upt_commodity.values():
        for pair, rate in com.items():
            agg[pair] = agg.get(pair, 0.0) + rate
    for pair in set(agg) | set(flows.upt):
        check("aggregate_unprocessed", f"ag16_{pair[0]}_{pair[1]}",
              agg.get(pair, 0.0) - flows.upt.get(pair, 0.0))

    # Traffic reduction per cloudlet.
    inflow: dict[int, float] = {}
    for (o, c), share in share_of.items():
        inflow[c] = inflow.get(c, 0.0) + share
    for c in set(inflow) | set(flows.pt_cl):
        if c == olt:
            continue
        check("reduction", f"red17_{c}",
              flows.pt_cl.get(c, 0.0) - f * inflow.get(c, 0.0))

    # Per-commodity processed conservation, restricted to candidate nodes.
    cn = set(candidate_nodes(instance))
    for c, com in flows.pt_commodity.items():
        rate_out = flows.pt_cl.get(c, 0.0)
        net = {}
        for (x, y), rate in com.items():
            if x not in cn or y not in cn:
                bad.append(Violation("flow_conservation_processed",
                                     f"fc18_{c}_offgraph_{x}_{y}", rate))
            net[x] = net.get(x, 0.0) + rate
            net[y] = net.get(y, 0.0) - rate
        for x in set(net) | {c, olt}:
            expected = rate_out if x == c else -rate_out if x == olt else 0.0
            check("flow_conservation_processed", f"fc18_{c}_{x}",
                  net.get(x, 0.0) - expected)

    agg = {}
    for com in flows.pt_commodity.values():
        for pair, rate in com.items():
            agg[pair] = agg.get(pair, 0.0) + rate
    for pair in set(agg) | set(flows.pt):
        check("aggregate_processed", f"ag19_{pair[0]}_{pair[1]}",
              agg.get(pair, 0.0) - flows.pt.get(pair, 0.0))

    # Placement linking: an instance is open iff it carries traffic.
    traffic_cv: dict[tuple[int, int], float] = {}
    for (o, c), share in share_of.items():
        v = instance.vm_request[o]
        traffic_cv[(c, v)] = traffic_cv.get((c, v), 0.0) + share
    for (c, v), t in traffic_cv.items():
        if t > tol and (c, v) not in solution.placed:
            bad.append(Violation("placement_link", f"lo20_{c}_{v}", t))
        if t > BETA_BPS:
            bad.append(Violation("placement_link", f"hi21_{c}_{v}", t - BETA_BPS))
    for (c, v) in solution.placed:
        if traffic_cv.get((c, v), 0.0) <= tol:
            bad.append(Violation("placement_link", f"lo20_{c}_{v}", -1.0))

    # Workload bookkeeping and capacity.
    for c in solution.cloudlet_open():
        expected = sum(params.workloads.workload(v, instance.layer(c))
                       for cc, v in solution.placed if cc == c)
        check("workload", f"tw24_{c}", solution.workload.get(c, 0.0) - expected,
              limit=1e-9)
        if params.capacity_enforced and solution.workload.get(c, 0.0) > 1.0 + 1e-9:
            bad.append(Violation("capacity", f"cap_{c}",
                                 solution.workload[c] - 1.0))

    # Network isolation: non-OLT cloudlets serve only their own network.
    for (o, c), share in share_of.items():
        if share > tol and c != olt:
            if instance.network_of(c) != instance.network_of(o):
                bad.append(Violation("isolation", f"iso_{o}_{c}", share))

    report = total_objective(solution, flows, instance, params)
    return ValidationReport(violations=bad, objective_w=report.total_w)


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

#: HiGHS branch-and-bound node limit of the exact engine.  A node count,
#: unlike a time limit, gives the same answer on any machine.
NODE_LIMIT = 10_000


def solve_exact(instance: NetworkInstance, params: ModelParams
                ) -> tuple[PlacementSolution, FlowAssignment, PowerReport]:
    """Provably optimal placement: the facility-location MILP of the module
    docstring, solved by HiGHS (``scipy.optimize.milp``) with zero gap.

    Tie rule: lowest total cost first.  HiGHS's open instances are kept
    and each object goes to its cheapest open candidate, exact ties to the
    smallest node id, which also settles any tied or fractional ``x`` it
    returns; instances left without objects are dropped.  Raises
    ``ResourceBudgetError`` if HiGHS stops at ``NODE_LIMIT`` nodes before
    proving optimality, ``InfeasibleError`` if no placement serves every
    object within the workload caps."""
    # Imported here, not at module level: loading scipy.optimize costs tens
    # of MiB and a large share of start-up, which the heuristic, the model
    # export and the validator do not need.
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_array

    vm_types = params.workloads.vm_types
    if max(instance.vm_request.values(), default=0) >= vm_types:
        raise InfeasibleError("instance requests a VM type outside the table")
    olt = instance.olt_id
    demand = params.demand_bps
    f = params.remaining_fraction
    cand = candidate_nodes(instance)
    objects = instance.objects()

    # Cheapest processed path per candidate (no link enters an object, so
    # it stays on the candidate-only subgraph) and unprocessed per object.
    proc = {c: (0.0, (olt,)) if c == olt
            else cheapest_path(instance, params, c, olt) for c in cand}
    up = {o: cheapest_paths(instance, params, o) for o in objects}

    # Columns: x per visible, routable (object, candidate) pair, then y per
    # (candidate, type), candidate-major.
    pairs = [(o, c) for o in objects
             for c in instance.visible_candidates(o) if c in up[o]]
    opens = [(c, v) for c in cand for v in range(vm_types)]
    work = [params.workloads.workload(v, instance.layer(c)) for c, v in opens]
    cost = [demand * up[o][c][0] + f * demand * proc[c][0] for o, c in pairs]
    objective = np.array(cost + [
        w * params.processing.max_power(instance.layer(c))
        for w, (c, _) in zip(work, opens)])
    n_x = len(pairs)
    y_col = {cv: n_x + j for j, cv in enumerate(opens)}

    # Rows: x[o,c] - y[c,v(o)] <= 0 per pair, sum_c x[o,c] = 1 per object,
    # then sum_v workload(v,c)*y[c,v] <= 1 per candidate.
    row_of = {o: n_x + i for i, o in enumerate(objects)}
    rows, cols, vals = [], [], []
    for j, (o, c) in enumerate(pairs):
        rows += [j, j, row_of[o]]
        cols += [j, y_col[(c, instance.vm_request[o])], j]
        vals += [1.0, -1.0, 1.0]
    lower = [-np.inf] * n_x + [1.0] * len(objects)
    upper = [0.0] * n_x + [1.0] * len(objects)
    if params.capacity_enforced:
        rows += [len(upper) + j // vm_types for j in range(len(opens))]
        cols += list(y_col.values())
        vals += work
        lower += [-np.inf] * len(cand)
        upper += [1.0] * len(cand)
    matrix = csr_array((vals, (rows, cols)), shape=(len(upper), len(objective)))

    # HiGHS also stops within an absolute gap of 1e-6.  Costs are scaled so
    # the largest is 1e6, which makes that gap 1e-12 of it: placements a
    # few microwatts apart do occur and must not be taken for ties.
    scale = 1e6 / (objective.max(initial=0.0) or 1.0)
    res = milp(objective * scale, integrality=[0] * n_x + [1] * len(opens),
               bounds=(0.0, 1.0),
               constraints=LinearConstraint(matrix, lower, upper),
               options={"mip_rel_gap": 0.0, "node_limit": NODE_LIMIT})
    if res.status == 2:
        raise InfeasibleError("no placement serves every object within the "
                              "workload caps")
    if res.status != 0:
        raise ResourceBudgetError(
            f"HiGHS stopped before proving optimality within the exact "
            f"engine's node limit ({NODE_LIMIT} nodes): {res.message}")

    is_open = {cv for cv, y in zip(opens, res.x[n_x:]) if y > 0.5}
    best: dict[int, tuple[float, int]] = {}
    for (o, c), d in zip(pairs, cost):
        if (c, instance.vm_request[o]) in is_open:
            best[o] = min(best.get(o, (d, c)), (d, c))
    served = {o: c for o, (_, c) in best.items()}

    solution = PlacementSolution.from_assignment(instance, params, served)
    flows = build_flows(instance, params, solution,
                        path_unprocessed=lambda o, c: up[o][c][1],
                        path_processed=lambda c: proc[c][1])
    report = total_objective(solution, flows, instance, params)
    return solution, flows, report

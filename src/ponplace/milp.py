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
at its cheapest open candidate, exact ties to the smallest node id.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .power import (ModelParams, PowerReport, link_cost_per_bit,
                    total_objective)
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


def require_known_vm_types(instance: NetworkInstance,
                           params: ModelParams) -> None:
    """Raise ``InfeasibleError`` if an object requests a VM type that the
    workload table lacks, so no engine serves only part of the objects."""
    if max(instance.vm_request.values(), default=0) >= params.workloads.vm_types:
        raise InfeasibleError("instance requests a VM type outside the table")


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
    (object, candidate) pairs plus the OLT.  Each commodity of object ``o``
    spans the links of ``o``'s network and the OLT that do not leave
    another object: no link enters an object, so conservation would hold
    the flow on those links at 0.  Processed traffic lives on the
    candidate-only subgraph and the OLT-hosted cloudlet generates none.
    """
    require_known_vm_types(instance, params)
    cand = candidate_nodes(instance)
    olt = instance.olt_id
    cn = set(cand)
    vm_types = params.workloads.vm_types
    f = params.remaining_fraction
    objects = instance.objects()
    visible = {o: instance.visible_candidates(o) for o in objects}

    variables: dict[str, Variable] = {}
    objective: dict[str, float] = {}
    rows: list[Row] = []

    def var(name: str, kind: str = "continuous") -> str:
        variables[name] = Variable(name, kind)
        return name

    def row(name, coeffs, sense, rhs) -> None:
        rows.append(Row(name, coeffs, sense, rhs))

    def flow_graph(nodes: set[int]):
        """``_src_dst`` of each link among ``nodes``, and per node in id
        order the positions in that list of its outgoing and incoming ones."""
        links = [ln for ln in instance.links
                 if ln.src in nodes and ln.dst in nodes]
        at = {(ln.src, ln.dst): i for i, ln in enumerate(links)}
        return [f"_{ln.src}_{ln.dst}" for ln in links], [
            (x, [at[x, ln.dst] for ln in instance.out_links[x] if ln.dst in nodes],
             [at[ln.src, x] for ln in instance.in_links[x] if ln.src in nodes])
            for x in sorted(nodes)]

    def commodity(prefix, row_prefix, graph, source, sink, rate) -> list[str]:
        """A commodity's link variables and conservation rows: ``rate``
        leaves ``source`` and reaches ``sink``."""
        names = [var(prefix + s) for s in graph[0]]
        for x, outs, ins in graph[1]:
            coeffs = dict.fromkeys([names[i] for i in outs], 1.0)
            coeffs.update(dict.fromkeys([names[i] for i in ins], -1.0))
            if x == source or x == sink:
                coeffs[rate] = -1.0 if x == source else 1.0
            row(f"{row_prefix}{x}", coeffs, "=", 0.0)
        return names

    def aggregate(family, totals, commodities, graphs) -> None:
        """Each link's total variable is the sum of its commodities', over
        every graph the link lies in."""
        along: dict[str, list[str]] = {}
        for key, names in commodities.items():
            for s, column in zip(graphs[key][0], zip(*names)):
                along.setdefault(s, []).extend(column)
        for s, total in totals.items():
            row(family + s, {total: 1.0, **dict.fromkeys(along.get(s, ()), -1.0)},
                "=", 0.0)

    # Placement binaries and workloads for every (candidate, type) pair.
    for c in cand:
        var(f"H_{c}", "binary")
        var(f"TW_{c}")
        for v in range(vm_types):
            var(f"Iv_{c}_{v}", "binary")

    # Node orders and link sets, each shared by every commodity on it: per
    # object its network without the other objects, per network its
    # candidates.
    net_ids = sorted({n.network_id for n in instance.nodes
                      if n.network_id != OLT_NETWORK_ID})
    net_nodes = {net: set(instance.network_node_ids(net)) for net in net_ids}
    core = {net: net_nodes[net].difference(objects) for net in net_ids}
    graph_o = {o: flow_graph(core[instance.network_of(o)] | {o})
               for o in objects}
    graph_p = {net: flow_graph((net_nodes[net] & cn) | {olt})
               for net in net_ids}

    # Aggregate per-link traffic variables carry the whole traffic objective.
    lu, lp = {}, {}  # "_src_dst" -> the link's aggregate variables
    for ln in instance.links:
        s = f"_{ln.src}_{ln.dst}"
        lu[s] = var("lu" + s)
        objective[lu[s]] = link_cost_per_bit(ln, params)
        if ln.src in cn and ln.dst in cn:
            lp[s] = var("lp" + s)
            objective[lp[s]] = objective[lu[s]]
    for c in cand:
        objective[f"TW_{c}"] = params.processing.max_power(instance.layer(c))

    # (13)/(14): demand split and per-cloudlet totals.
    xovc, xoc = {}, {}  # (object, candidate) -> variable
    senders: dict[tuple[int, int], list[str]] = {}  # (c, v) -> xovc variables
    for o in objects:
        v = instance.vm_request[o]
        xovc.update({(o, c): var(f"xovc_{o}_{v}_{c}") for c in visible[o]})
        row(f"d13_{o}", {xovc[o, c]: 1.0 for c in visible[o]}, "=",
            params.demand_bps)
        for c in visible[o]:
            xoc[o, c] = var(f"xoc_{o}_{c}")
            row(f"a14_{o}_{c}", {xoc[o, c]: 1.0, xovc[o, c]: -1.0}, "=", 0.0)
            senders.setdefault((c, v), []).append(xovc[o, c])

    # (15)/(16): unprocessed per-commodity conservation and aggregation.
    flows_u = {o: [commodity(f"xuf_{o}_{c}", f"fc15_{o}_{c}_", graph_o[o],
                             o, c, xoc[o, c]) for c in visible[o]]
               for o in objects}
    aggregate("ag16", lu, flows_u, graph_o)

    # (17)-(19): traffic reduction and processed-commodity conservation.
    flows_p: dict[int, list[list[str]]] = {net: [] for net in net_ids}
    for c in cand:
        if c == olt:
            continue
        net = instance.network_of(c)
        xpc = var(f"xpc_{c}")
        row(f"red17_{c}", {xpc: 1.0, **{xoc[o, c]: -f for o in objects
                                        if (o, c) in xoc}}, "=", 0.0)
        flows_p[net].append(commodity(f"xpf_{c}", f"fc18_{c}_", graph_p[net],
                                      c, olt, xpc))
    aggregate("ag19", lp, flows_p, graph_p)

    # (20)-(24): placement linking, cloudlet opening, workload bookkeeping.
    for c in cand:
        for v in range(vm_types):
            sent = dict.fromkeys(senders.get((c, v), []), 1.0)
            row(f"lo20_{c}_{v}", {**sent, f"Iv_{c}_{v}": -1.0}, ">=", 0.0)
            row(f"hi21_{c}_{v}", {**sent, f"Iv_{c}_{v}": -BETA_BPS}, "<=", 0.0)
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

class _Text(dict):
    """``make(x)`` of each distinct number ``x``, made once; zeros each
    time, as 0.0 and -0.0 are one key but print differently."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, x: float) -> str:
        return self.setdefault(x, self.make(x)) if x else self.make(x)


def _write(path: Path, pieces) -> Path:
    """Write newline-terminated text through one handle, in chunks."""
    pieces = iter(pieces)
    with open(path, "w") as fh:
        while chunk := list(islice(pieces, 8192)):
            fh.write("".join(chunk))
    return path


def _exact(x: float) -> str:
    """``x`` as text that reads back as the same float: 12 significant
    digits where they suffice (``1``, ``-1``, ``10000000``), else the
    shortest exact form."""
    text = f"{x:.12g}"
    return text if float(text) == x else repr(x)


def emit_lp(model: MilpModel, path: str | Path) -> Path:
    """Write the model in CPLEX LP format (one constraint per line) and a
    companion ``<path>.names`` variable map."""
    names = sorted(model.variables)
    path = _write(Path(path), _lp_lines(model, names))
    _write(path.with_suffix(path.suffix + ".names"),
           (f"{v}\t{model.variables[v].kind}\n" for v in names))
    return path


def _lp_lines(model: MilpModel, names: list[str]):
    number = _Text(_exact)
    term = _Text(lambda c: f"{'-' if c < 0 else '+'} {_exact(abs(c))} ")
    terms = [f"{number[c]} {n}" for n, c in sorted(model.objective.items()) if c]
    yield ("\\ placement model\nMinimize\n obj: " + " + ".join(terms)
           + "\nSubject To\n")
    for row in model.rows:
        body = " ".join([term[coef] + name for name, coef
                         in sorted(row.coeffs.items()) if coef != 0.0])
        yield (f" {row.name}: {body.lstrip('+ ') or '0 nothing'} "
               f"{row.sense} {number[row.rhs]}\n")
    yield "Bounds\nBinary\n"  # defaults: continuous >= 0, binaries listed
    yield from (f" {v}\n" for v in names if model.variables[v].kind == "binary")
    yield "End\n"


def emit_mps(model: MilpModel, path: str | Path) -> Path:
    """Fixed-free MPS emission, equivalent to the LP file."""
    return _write(Path(path), _mps_lines(model))


def _mps_lines(model: MilpModel):
    number = _Text(_exact)
    sense_mps = {"=": "E", "<=": "L", ">=": "G"}
    marker = "    MARKER                 'MARKER'                 '{}'\n"
    yield "NAME placement\nROWS\n N  obj\n"
    yield from (f" {sense_mps[row.sense]}  {row.name}\n" for row in model.rows)
    yield "COLUMNS\n"
    # Each column's "  row  coef" entries; one text per row and coefficient.
    entries: dict[str, list[str]] = {v: [] for v in model.variables}
    for name, coef in model.objective.items():
        entries[name].append("  obj  " + number[coef])
    for row in model.rows:
        text = {c: f"  {row.name}  {number[c]}" for c in set(row.coeffs.values())}
        for name, coef in row.coeffs.items():
            if coef:
                entries[name].append(text[coef])
    names = sorted(model.variables)
    in_int = False
    for v in names:
        if (model.variables[v].kind == "binary") != in_int:
            in_int = not in_int
            yield marker.format("INTORG" if in_int else "INTEND")
        if entries[v]:
            yield "    " + v + ("\n    " + v).join(entries[v]) + "\n"
    if in_int:
        yield marker.format("INTEND")
    yield "RHS\n"
    yield from (f"    RHS  {row.name}  {number[row.rhs]}\n"
                for row in model.rows if row.rhs)
    yield "BOUNDS\n"
    yield from (f" BV BND  {v}\n" for v in names
                if model.variables[v].kind == "binary")
    yield "ENDATA\n"


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
    ignored: what they sum is read from the per-commodity values."""
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
        elif tag == "xpc" and value > tol:
            flows.pt_cl[int(parts[1])] = value
        elif tag == "xpf" and value > tol:
            c, x, y = map(int, parts[1:])
            flows.pt_commodity.setdefault(c, {})[(x, y)] = value
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

    def conserve(family: str, row: str, com: dict, source: int, sink: int,
                 rate: float, nodes: set[int] | None = None) -> None:
        """One commodity: ``rate`` leaves ``source`` and reaches ``sink``
        along the links of ``com``, which stay among ``nodes`` if given."""
        net: dict[int, float] = {}
        for (x, y), r in com.items():
            if nodes is not None and (x not in nodes or y not in nodes):
                bad.append(Violation(family, f"{row}offgraph_{x}_{y}", r))
            net[x] = net.get(x, 0.0) + r
            net[y] = net.get(y, 0.0) - r
        for x in set(net) | {source, sink}:
            expected = rate if x == source else -rate if x == sink else 0.0
            check(family, f"{row}{x}", net.get(x, 0.0) - expected)

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
        conserve("flow_conservation_unprocessed", f"fc15_{o}_{c}_", com, o, c,
                 share_of.get((o, c), 0.0))
    for (o, c) in share_of:
        if share_of[(o, c)] > tol and (o, c) not in flows.upt_commodity and o != c:
            bad.append(Violation("flow_conservation_unprocessed",
                                 f"fc15_{o}_{c}_missing", share_of[(o, c)]))

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
        conserve("flow_conservation_processed", f"fc18_{c}_", com, c, olt,
                 flows.pt_cl.get(c, 0.0), cn)

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

    require_known_vm_types(instance, params)
    vm_types = params.workloads.vm_types
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

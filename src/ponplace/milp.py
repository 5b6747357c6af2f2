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
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .power import ModelParams, link_energies, total_objective
from .routing import cheapest_path, cheapest_paths
from .solution import EngineResult, FlowAssignment, PlacementSolution, serve
from .topology import LayerKind, NetworkInstance

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
class Row:
    name: str
    coeffs: dict[str, float]
    sense: str  # "=", "<=", ">="
    rhs: float


@dataclass(frozen=True, eq=False)
class FlowGraph:
    """Links among a set of nodes, shared by every commodity routed there:
    ``links`` holds each link's ``_src_dst`` suffix in name order and
    ``nodes``, per node in id order, its conservation terms (position in
    ``links``, +1 out / -1 in), also in name order."""

    links: list[str]
    nodes: dict[int, list[tuple[int, float]]]


@dataclass(frozen=True)
class Commodity:
    """``rate`` leaves ``source`` and reaches ``sink`` over ``graph``: one
    variable ``prefix + s`` per link suffix ``s`` and one conservation row
    ``row_prefix + str(x)`` per node ``x``, held as this record alone."""

    prefix: str
    row_prefix: str
    graph: FlowGraph
    source: int
    sink: int
    rate: str

    def rows(self) -> Iterator[Row]:
        names = [self.prefix + s for s in self.graph.links]
        for x, terms in self.graph.nodes.items():
            coeffs = {names[i]: c for i, c in terms}
            if x == self.source or x == self.sink:
                coeffs[self.rate] = -1.0 if x == self.source else 1.0
            yield Row(f"{self.row_prefix}{x}", coeffs, "=", 0.0)


def _key(com: Commodity) -> str:
    """Where the commodity's variables sort among all names: each is
    ``prefix + "_src_dst"``, and no other name starts with this key."""
    return com.prefix + "_"


@dataclass(frozen=True)
class Aggregate:
    """Rows ``family + s``: link ``s``'s total ``totals[s]`` is the sum of
    the variables that ``commodities`` have on it."""

    family: str
    totals: dict[str, str]
    commodities: list[Commodity]

    def along(self) -> dict[str, list[str]]:
        """Per link suffix ``s``, the prefixes of the commodities on it, in
        the name order of their variables ``prefix + s``."""
        along: dict[str, list[str]] = {s: [] for s in self.totals}
        for com in sorted(self.commodities, key=_key):
            for s in com.graph.links:
                along[s].append(com.prefix)
        return along

    def rows(self) -> Iterator[Row]:
        along = self.along()
        for s, total in self.totals.items():
            yield Row(self.family + s, {total: 1.0, **dict.fromkeys(
                [prefix + s for prefix in along[s]], -1.0)}, "=", 0.0)


@dataclass
class MilpModel:
    """The arc model.  ``kinds`` gives the kind ("continuous" or "binary")
    of each variable outside the commodities; ``blocks`` holds the rows in
    order, with each commodity's conservation rows and each aggregate
    family as one record.  The writers and ``counts()`` read ``blocks``;
    ``variables`` (name -> kind) and ``rows`` expand them into a new flat
    dict and list on each access."""

    kinds: dict[str, str]
    objective: dict[str, float]
    blocks: list[Row | Commodity | Aggregate]

    def commodities(self) -> Iterator[Commodity]:
        return (com for part in self.blocks if isinstance(part, Aggregate)
                for com in part.commodities)

    @property
    def variables(self) -> dict[str, str]:
        out = dict(self.kinds)
        for com in self.commodities():
            out.update(dict.fromkeys([com.prefix + s for s in com.graph.links],
                                     "continuous"))
        return out

    @property
    def rows(self) -> list[Row]:
        return [row for part in self.blocks
                for row in ([part] if isinstance(part, Row) else part.rows())]

    def counts(self) -> dict[str, int]:
        out = {"continuous": 0, "binary": 0, "constraints": 0}

        def add(key: str, n: int) -> None:
            if n:
                out[key] = out.get(key, 0) + n

        for part in self.blocks:
            name, n = _row_count(part)
            out["constraints"] += n
            add("rows_" + name.split("_", 1)[0], n)
        for name, kind in self.kinds.items():
            out[kind] += 1
            add("vars_" + name.split("_", 1)[0], 1)
        for com in self.commodities():
            out["continuous"] += len(com.graph.links)
            add("vars_" + com.prefix.split("_", 1)[0], len(com.graph.links))
        return out


def _row_count(part: Row | Commodity | Aggregate) -> tuple[str, int]:
    """A name of the block's rows, and how many rows it holds."""
    if isinstance(part, Commodity):
        return part.row_prefix, len(part.graph.nodes)
    if isinstance(part, Aggregate):
        return part.family, len(part.totals)
    return part.name, 1


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
    Each commodity is one ``Commodity`` on a ``FlowGraph`` shared by all
    commodities of its object (unprocessed) or network (processed).
    """
    require_known_vm_types(instance, params)
    cand = instance.candidates
    olt = instance.olt_id
    cn = set(cand)
    vm_types = params.workloads.vm_types
    f = params.remaining_fraction
    objects = instance.objects()
    visible = {o: instance.serving[instance.network_of(o)] for o in objects}

    kinds: dict[str, str] = {}
    objective: dict[str, float] = {}
    blocks: list[Row | Commodity | Aggregate] = []

    def var(name: str, kind: str = "continuous") -> str:
        kinds[name] = kind
        return name

    def row(name, coeffs, sense, rhs) -> None:
        blocks.append(Row(name, coeffs, sense, rhs))

    # The out and in term of each link position, one tuple each for all
    # graphs: at the paper scale the graphs hold over 100k terms.
    shared: list[tuple[tuple[int, float], tuple[int, float]]] = []

    def flow_graph(nodes: set[int]) -> FlowGraph:
        links = sorted((f"_{src}_{dst}", src, dst)
                       for src, dst in instance.links
                       if src in nodes and dst in nodes)
        shared.extend(((i, 1.0), (i, -1.0))
                      for i in range(len(shared), len(links)))
        terms = {x: [] for x in sorted(nodes)}
        for (_, src, dst), (out, into) in zip(links, shared):
            terms[src].append(out)
            terms[dst].append(into)
        return FlowGraph([s for s, _, _ in links], terms)

    def commodity(*fields) -> Commodity:
        blocks.append(Commodity(*fields))
        return blocks[-1]

    # Placement binaries and workloads for every (candidate, type) pair.
    for c in cand:
        var(f"H_{c}", "binary")
        var(f"TW_{c}")
        for v in range(vm_types):
            var(f"Iv_{c}_{v}", "binary")

    # Node orders and link sets, each shared by every commodity on it: per
    # object itself and the candidates that may serve it, per network those
    # candidates.
    graph_o = {o: flow_graph({o, *visible[o]}) for o in objects}
    graph_p = {net: flow_graph(set(instance.serving[net]))
               for net in instance.networks}

    # Aggregate per-link traffic variables carry the whole traffic objective.
    lu, lp = {}, {}  # "_src_dst" -> the link's aggregate variables
    energies = link_energies(instance, params.energy).links
    for (src, dst), (_, _, cost) in energies.items():
        s = f"_{src}_{dst}"
        lu[s] = var("lu" + s)
        objective[lu[s]] = cost
        if src in cn and dst in cn:
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
    flows_u = [commodity(f"xuf_{o}_{c}", f"fc15_{o}_{c}_", graph_o[o],
                         o, c, xoc[o, c])
               for o in objects for c in visible[o]]
    blocks.append(Aggregate("ag16", lu, flows_u))

    # (17)-(19): traffic reduction and processed-commodity conservation.
    flows_p = []
    for c in cand:
        if c == olt:
            continue
        xpc = var(f"xpc_{c}")
        row(f"red17_{c}", {xpc: 1.0, **{xoc[o, c]: -f for o in objects
                                        if (o, c) in xoc}}, "=", 0.0)
        flows_p.append(commodity(f"xpf_{c}", f"fc18_{c}_",
                                 graph_p[instance.network_of(c)], c, olt, xpc))
    blocks.append(Aggregate("ag19", lp, flows_p))

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

    return MilpModel(kinds=kinds, objective=objective, blocks=blocks)


# ---------------------------------------------------------------------------
# LP / MPS emission
# ---------------------------------------------------------------------------
#
# Every name of a commodity starts with its prefix, so the text of its
# rows and columns is made once per ``FlowGraph`` with placeholders for
# the two prefixes and stamped per commodity.  Three facts of the naming
# keep that text in the order the flat emission had:
# - a commodity's variables all start with ``prefix + "_"``, which no other
#   variable does, so in name order they are one run, in the link order of
#   the graph, at the place of that key;
# - its rate variable (``xoc_``/``xpc_``) sorts before its link variables
#   (``xuf_``/``xpf_``), so the rate term leads a conservation row;
# - a link's total (``lu_``/``lp_``) sorts before the commodity variables
#   summed into it.

_VAR, _ROW = "\0", "\1"  # placeholders for a commodity's two prefixes


def _stamp(text: str, com: Commodity) -> str:
    return text.replace(_VAR, com.prefix).replace(_ROW, com.row_prefix)


def _columns(model: MilpModel) -> list[str | tuple[Commodity, str]]:
    """The variables in name order: each variable outside the commodities
    as its name, each commodity as one entry for its run, with the family
    of the aggregate that sums it."""
    at: dict[str, tuple[Commodity, str] | None] = dict.fromkeys(model.kinds)
    at.update((_key(com), (com, part.family)) for part in model.blocks
              if isinstance(part, Aggregate) for com in part.commodities)
    return [at[key] or key for key in sorted(at)]


def _binaries(model: MilpModel) -> list[str]:
    return sorted(v for v, kind in model.kinds.items() if kind == "binary")


class _Text(dict):
    """``make(x)`` of each distinct ``x`` (a number or a flow graph), made
    once; zeros each time, as 0.0 and -0.0 are one key but print
    differently."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, x):
        return self.setdefault(x, self.make(x)) if x else self.make(x)


def _write(path: Path, pieces) -> Path:
    """Write newline-terminated text through one handle."""
    with open(path, "w") as fh:
        fh.writelines(pieces)
    return path


def _exact(x: float) -> str:
    """``x`` as text that reads back as the same float: 12 significant
    digits where they suffice (``1``, ``-1``, ``10000000``), else the
    shortest exact form."""
    text = f"{x:.12g}"
    return text if float(text) == x else repr(x)


def emit_lp(model: MilpModel, path: str | Path) -> Path:
    """Write the model in CPLEX LP format (one constraint per line)."""
    return _write(Path(path), _lp_lines(model))


def _lp_lines(model: MilpModel):
    number = _Text(_exact)
    term = _Text(lambda c: f"{'-' if c < 0 else '+'} {_exact(abs(c))} ")
    end = f" = {number[0.0]}\n"

    def conservation(graph: FlowGraph):
        """Per node: its row, and the row's body after a rate term, which
        precedes the body."""
        rows, bodies = {}, {}
        for x, terms in graph.nodes.items():
            body = " ".join([term[c] + _VAR + graph.links[i] for i, c in terms])
            bodies[x] = " " + body if body else ""
            rows[x] = f" {_ROW}{x}: {body.lstrip('+ ') or '0 nothing'}{end}"
        return rows, bodies

    text = _Text(conservation)
    terms = [f"{number[c]} {n}" for n, c in sorted(model.objective.items()) if c]
    yield ("\\ placement model\nMinimize\n obj: " + " + ".join(terms)
           + "\nSubject To\n")
    for part in model.blocks:
        if isinstance(part, Row):
            body = " ".join([term[coef] + name for name, coef
                             in sorted(part.coeffs.items()) if coef != 0.0])
            yield (f" {part.name}: {body.lstrip('+ ') or '0 nothing'} "
                   f"{part.sense} {number[part.rhs]}\n")
        elif isinstance(part, Commodity):
            rows, bodies = text[part.graph]
            rows = dict(rows)
            for x, coef in ((part.sink, 1.0), (part.source, -1.0)):
                rows[x] = (f" {_ROW}{x}: " + (term[coef] + part.rate
                                              + bodies[x]).lstrip("+ ") + end)
            yield _stamp("".join(rows.values()), part)
        else:
            yield from _lp_aggregate(part, term, end)
    yield "Bounds\nBinary\n"  # defaults: continuous >= 0, binaries listed
    yield from (f" {v}\n" for v in _binaries(model))
    yield "End\n"


def _lp_aggregate(part: Aggregate, term: _Text, end: str):
    along = part.along()
    head, minus = term[1.0], " " + term[-1.0]
    for s, total in part.totals.items():
        body = (head + total).lstrip("+ ")
        if along[s]:
            body += minus + (s + minus).join(along[s]) + s
        yield f" {part.family}{s}: {body}{end}"


def emit_mps(model: MilpModel, path: str | Path) -> Path:
    """Fixed-free MPS emission, equivalent to the LP file."""
    return _write(Path(path), _mps_lines(model))


def _mps_lines(model: MilpModel):
    number = _Text(_exact)
    sense_mps = {"=": "E", "<=": "L", ">=": "G"}
    marker = "    MARKER                 'MARKER'                 '{}'\n"
    yield "NAME placement\nROWS\n N  obj\n"
    rows = _Text(lambda g: "".join([f" E  {_ROW}{x}\n" for x in g.nodes]))
    for part in model.blocks:
        if isinstance(part, Row):
            yield f" {sense_mps[part.sense]}  {part.name}\n"
        elif isinstance(part, Commodity):
            yield rows[part.graph].replace(_ROW, part.row_prefix)
        else:
            yield "".join([f" E  {part.family}{s}\n" for s in part.totals])
    yield "COLUMNS\n"
    # Each column's "  row  coef" entries; one text per row and coefficient.
    # Of a commodity only its rate variable's entries are collected: its
    # link columns are stamped whole below.
    entries: dict[str, list[str]] = {v: [] for v in model.kinds}
    for name, coef in model.objective.items():
        entries[name].append("  obj  " + number[coef])
    for part in model.blocks:
        if isinstance(part, Row):
            text = {c: f"  {part.name}  {number[c]}"
                    for c in set(part.coeffs.values())}
            for name, coef in part.coeffs.items():
                if coef:
                    entries[name].append(text[coef])
        elif isinstance(part, Commodity):
            entries[part.rate] += [
                f"  {part.row_prefix}{x}  {number[c]}"
                for x, c in sorted([(part.sink, 1.0), (part.source, -1.0)])]
        else:
            for s, total in part.totals.items():
                entries[total].append(f"  {part.family}{s}  {number[1.0]}")

    def links(key: tuple[FlowGraph, str]) -> str:
        """Each link column's entries: the conservation rows at its ends,
        in node order, then its row of the aggregate family."""
        graph, fam = key
        cols = [[] for _ in graph.links]
        for x, terms in graph.nodes.items():
            for i, c in terms:
                cols[i].append(f"{_ROW}{x}  {number[c]}")
        return "".join([f"    {_VAR}{s}  {entry}\n"
                        for s, col in zip(graph.links, cols)
                        for entry in col + [f"{fam}{s}  {number[-1.0]}"]])

    columns = _Text(links)
    # The binaries (H_, Iv_) sort before every other name, and a TW_c
    # follows them in every model, so a named column closes each INTORG run.
    in_int = False
    for col in _columns(model):
        if isinstance(col, str):
            if (model.kinds[col] == "binary") != in_int:
                in_int = not in_int
                yield marker.format("INTORG" if in_int else "INTEND")
            if entries[col]:
                yield "    " + col + ("\n    " + col).join(entries[col]) + "\n"
            continue
        com, fam = col
        yield _stamp(columns[com.graph, fam], com)
    yield "RHS\n"
    yield from (f"    RHS  {part.name}  {number[part.rhs]}\n"
                for part in model.blocks if isinstance(part, Row) and part.rhs)
    yield "BOUNDS\n"
    yield from (f" BV BND  {v}\n" for v in _binaries(model))
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


#: Variable families of the model and what each index names: an object
#: (o), a candidate (c), any node (n) or a VM type (v).  ``xuf_o_c_x_y`` is
#: object o's traffic to candidate c on the link x -> y.
VARIABLE_INDICES = {"Iv": "cv", "H": "c", "TW": "c", "xoc": "oc",
                    "xovc": "ovc", "xuf": "ocnn", "xpc": "c", "xpf": "cnn",
                    "lu": "nn", "lp": "nn"}
#: Families whose last two indices are the ends of a link.
LINK_FAMILIES = ("xuf", "xpf", "lu", "lp")

#: Imported values may carry solver round-off down to this much below 0.
NEGATIVE_TOL = 1e-9
#: Flows, shares and workloads at or below this count as absent.
FLOW_TOL_BPS = 1e-6
#: A binary's value (``Iv``, ``H``) lies within this of 0 or 1.
BINARY_TOL = 1e-6


def _variable_problem(name: str, value: float) -> str | None:
    """Why ``name value`` cannot be a value of the model, or None."""
    tag, *indices = name.split("_")
    kinds = VARIABLE_INDICES.get(tag, "")
    if len(kinds) != len(indices) or not all(i.isdigit() for i in indices):
        return f"unknown variable {name!r}"
    if not math.isfinite(value) or value < -NEGATIVE_TOL:
        return f"{name} has value {value!r}; values must be finite and >= 0"
    if tag in ("Iv", "H") and min(abs(value), abs(value - 1.0)) > BINARY_TOL:
        return f"{name} has value {value!r}; a binary must be 0 or 1"
    return None


def _index_problem(name: str, instance: NetworkInstance,
                   vm_types: int) -> str | None:
    """Why the well-formed variable ``name`` is not one of this instance's
    model, or None."""
    tag, *indices = name.split("_")
    ids = [int(i) for i in indices]
    for kind, i in zip(VARIABLE_INDICES[tag], ids):
        if i >= (vm_types if kind == "v" else len(instance.nodes)):
            return (f"variable {name!r} names a node or VM type the "
                    f"instance lacks")
        is_object = kind != "v" and instance.layer(i) is LayerKind.OBJECT
        if kind == "o" and not is_object or kind == "c" and is_object:
            role = "an object" if kind == "o" else "a candidate"
            return (f"variable {name!r} names {instance.layer(i).value} "
                    f"node {i} as {role}")
    if tag in LINK_FAMILIES and tuple(ids[-2:]) not in instance.links:
        return f"variable {name!r} names a link the instance lacks"
    return None


class _FileValues(dict):
    """Variable values read from the file ``path``, each ``name`` stated at
    line ``line[name]``."""


def load_solution_values(path: str | Path) -> dict[str, float]:
    """Read a two-column ``variable value`` file.  Blank lines and ``#``
    comments are skipped; anything else that is not a known variable with
    a finite, nonnegative value fails, naming ``path:line``."""
    values = _FileValues()
    values.path, values.line = path, {}
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
        if problem is None and name in values.line:
            problem = f"{name} repeats line {values.line[name]}"
        if problem is not None:
            raise ValueError(f"{where}: {problem}")
        values.line[name] = number
        values[name] = value
    return values


def solution_from_values(values: dict[str, float], instance: NetworkInstance,
                         params: ModelParams
                         ) -> tuple[PlacementSolution, FlowAssignment]:
    """Rebuild a placement and flow assignment from imported variable
    values (native export or an external solver's answer).  Values of the
    aggregate families (``xovc``, ``lu``, ``lp``) are accepted and
    ignored: what they sum is read from the per-commodity values.  A value
    read by ``load_solution_values`` is refused naming its ``path:line``."""
    for name, value in values.items():
        problem = (_variable_problem(name, value)
                   or _index_problem(name, instance, params.workloads.vm_types))
        if problem is not None:
            if isinstance(values, _FileValues):
                problem = f"{values.path}:{values.line[name]}: {problem}"
            raise ValueError(problem)
    placed = set()
    stated_open: dict[int, bool] = {}  # candidate -> its H_c, where stated
    workload: dict[int, float] = {}
    assignment: dict[int, list[tuple[int, float]]] = {}
    flows = FlowAssignment()
    for name, value in values.items():
        parts = name.split("_")
        tag = parts[0]
        if tag == "Iv" and value > 0.5:
            placed.add((int(parts[1]), int(parts[2])))
        elif tag == "H":
            stated_open[int(parts[1])] = value > 0.5
        elif tag == "TW":
            workload[int(parts[1])] = value
        elif tag == "xoc" and value > FLOW_TOL_BPS:
            assignment.setdefault(int(parts[1]), []).append((int(parts[2]), value))
        elif tag == "xuf" and value > FLOW_TOL_BPS:
            o, c, x, y = map(int, parts[1:])
            flows.upt_commodity.setdefault((o, c), {})[(x, y)] = value
        elif tag == "xpc" and value > FLOW_TOL_BPS:
            flows.pt_cl[int(parts[1])] = value
        elif tag == "xpf" and value > FLOW_TOL_BPS:
            c, x, y = map(int, parts[1:])
            flows.pt_commodity.setdefault(c, {})[(x, y)] = value
    workload = {c: tw for c, tw in workload.items() if tw > FLOW_TOL_BPS or
                any(pc == c for pc, _ in placed)}
    opened = (frozenset(c for c, on in stated_open.items() if on)
              if stated_open else None)
    solution = PlacementSolution(placed=frozenset(placed), workload=workload,
                                 assignment=assignment, opened=opened)
    return solution, flows


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

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
                      instance: NetworkInstance, params: ModelParams
                      ) -> ValidationReport:
    """Check every constraint family against the given solution and flows.
    The objective is ``total_objective``'s, the call ``solution.serve``
    makes for every engine, so it is not independent (ROADMAP item 5)."""
    bad: list[Violation] = []

    def check(family: str, row: str, residual: float,
              limit: float = FLOW_TOL_BPS):
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
    for (o, c), share in share_of.items():
        if share > FLOW_TOL_BPS and (o, c) not in flows.upt_commodity \
                and o != c:
            bad.append(Violation("flow_conservation_unprocessed",
                                 f"fc15_{o}_{c}_missing", share))

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
    cn = set(instance.candidates)
    for c, com in flows.pt_commodity.items():
        conserve("flow_conservation_processed", f"fc18_{c}_", com, c, olt,
                 flows.pt_cl.get(c, 0.0), cn)

    # Placement linking: an instance is open iff it carries traffic.
    traffic_cv: dict[tuple[int, int], float] = {}
    for (o, c), share in share_of.items():
        v = instance.vm_request[o]
        traffic_cv[(c, v)] = traffic_cv.get((c, v), 0.0) + share
    for (c, v), t in traffic_cv.items():
        if t > FLOW_TOL_BPS and (c, v) not in solution.placed:
            bad.append(Violation("placement_link", f"lo20_{c}_{v}", t))
        if t > BETA_BPS:
            bad.append(Violation("placement_link", f"hi21_{c}_{v}", t - BETA_BPS))
    for (c, v) in solution.placed:
        if traffic_cv.get((c, v), 0.0) <= FLOW_TOL_BPS:
            bad.append(Violation("placement_link", f"lo20_{c}_{v}", -1.0))

    # Cloudlet opening, where H_c is stated: an open cloudlet hosts an
    # instance (sum_v Iv - H >= 0) and a hosted instance opens its cloudlet
    # (sum_v Iv - GAMMA H <= 0); unstated H_c are 0.
    if solution.opened is not None:
        hosts = solution.cloudlet_open()
        for c in sorted(solution.opened - hosts):
            bad.append(Violation("opening", f"cl22_{c}", -1.0))
        for c in sorted(hosts - solution.opened):
            bad.append(Violation("opening", f"cl23_{c}", float(sum(
                1 for cc, _ in solution.placed if cc == c))))

    # Workload bookkeeping and capacity, at every candidate with a stated
    # workload or an open instance.
    for c in sorted(set(solution.workload) | solution.cloudlet_open()):
        tw = solution.workload.get(c, 0.0)
        expected = sum(params.workloads.workload(v, instance.layer(c))
                       for cc, v in solution.placed if cc == c)
        check("workload", f"tw24_{c}", tw - expected, limit=1e-9)
        if params.capacity_enforced and tw > 1.0 + 1e-9:
            bad.append(Violation("capacity", f"cap_{c}", tw - 1.0))

    # Network isolation: non-OLT cloudlets serve only their own network.
    for (o, c), share in share_of.items():
        if share > FLOW_TOL_BPS and c != olt:
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


def solve_exact(instance: NetworkInstance,
                params: ModelParams) -> EngineResult:
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
    cand = instance.candidates
    objects = instance.objects()

    # Cheapest processed cost per candidate (no link enters an object, so
    # it stays on the candidate-only subgraph) and unprocessed per object.
    proc = {c: cheapest_path(instance, params, c, olt)[0] for c in cand}
    up = {o: cheapest_paths(instance, params, o) for o in objects}

    # Columns: x per visible, routable (object, candidate) pair, then y per
    # (candidate, type), candidate-major.
    pairs = [(o, c) for o in objects
             for c in instance.serving[instance.network_of(o)] if c in up[o]]
    opens = [(c, v) for c in cand for v in range(vm_types)]
    work = [params.workloads.workload(v, instance.layer(c)) for c, v in opens]
    cost = [demand * up[o][c][0] + f * demand * proc[c] for o, c in pairs]
    objective = cost + [w * params.processing.max_power(instance.layer(c))
                        for w, (c, _) in zip(work, opens)]
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
    lower = [-math.inf] * n_x + [1.0] * len(objects)
    upper = [0.0] * n_x + [1.0] * len(objects)
    if params.capacity_enforced:
        rows += [len(upper) + j // vm_types for j in range(len(opens))]
        cols += list(y_col.values())
        vals += work
        lower += [-math.inf] * len(cand)
        upper += [1.0] * len(cand)
    matrix = csr_array((vals, (rows, cols)), shape=(len(upper), len(objective)))

    # HiGHS also stops within an absolute gap of 1e-6.  Costs are scaled so
    # the largest is 1e6, which makes that gap 1e-12 of it: placements a
    # few microwatts apart do occur and must not be taken for ties.
    scale = 1e6 / (max(objective, default=0.0) or 1.0)
    # Feasibility jump only seeds a first incumbent, and the root LP closed
    # the gap in every cell measured (README).  scipy passes the option to
    # HiGHS as it is, with a warning that it does not know it.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options detected",
                                RuntimeWarning)
        res = milp([c * scale for c in objective],
                   integrality=[0] * n_x + [1] * len(opens), bounds=(0.0, 1.0),
                   constraints=LinearConstraint(matrix, lower, upper),
                   options={"mip_rel_gap": 0.0, "node_limit": NODE_LIMIT,
                            "mip_heuristic_run_feasibility_jump": False})
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

    return serve(instance, params, served, cheapest_path)

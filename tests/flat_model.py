"""The flat arc model and its LP/MPS emitters, as ``ponplace.milp`` had
them before commodities became blocks on shared graphs.

Kept as the byte reference: every file ``ponplace.milp`` writes
must equal the one written here, and its model must count the same
variables and rows.  One ``Variable`` per variable and one coefficient
dict per row, so it is slow and large at paper scale by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from ponplace.milp import BETA_BPS, GAMMA, require_known_vm_types
from ponplace.power import ModelParams, link_energies
from ponplace.topology import NetworkInstance, OLT_NETWORK_ID


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
    cand = instance.candidates
    olt = instance.olt_id
    cn = set(cand)
    vm_types = params.workloads.vm_types
    f = params.remaining_fraction
    objects = instance.objects()
    visible = {o: instance.serving[instance.network_of(o)] for o in objects}

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
        links = [(src, dst) for src, dst in instance.links
                 if src in nodes and dst in nodes]
        outs, ins = {x: [] for x in nodes}, {x: [] for x in nodes}
        for i, (src, dst) in enumerate(links):
            outs[src].append(i)
            ins[dst].append(i)
        return [f"_{src}_{dst}" for src, dst in links], [
            (x, outs[x], ins[x]) for x in sorted(nodes)]

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
    net_nodes = {net: {n.id for n in instance.nodes
                        if n.network_id in (net, OLT_NETWORK_ID)}
                 for net in net_ids}
    core = {net: net_nodes[net].difference(objects) for net in net_ids}
    graph_o = {o: flow_graph(core[instance.network_of(o)] | {o})
               for o in objects}
    graph_p = {net: flow_graph((net_nodes[net] & cn) | {olt})
               for net in net_ids}

    # Aggregate per-link traffic variables carry the whole traffic objective.
    lu, lp = {}, {}  # "_src_dst" -> the link's aggregate variables
    costs = link_energies(instance, params.energy).links
    for src, dst in instance.links:
        s = f"_{src}_{dst}"
        lu[s] = var("lu" + s)
        objective[lu[s]] = costs[src, dst][2]
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
    """Write the model in CPLEX LP format (one constraint per line)."""
    return _write(Path(path), _lp_lines(model, sorted(model.variables)))


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

"""Function hooks installed from outside the program: the traced run's span
recorder and the answer capture the correctness gate reads.

A hook names a function by its defining module, e.g.
``ponplace.routing.min_hop_path``, and replaces it at every attribute of
every loaded ponplace module bound to that same object.  Callers that
imported the name (``ponplace.eepiv.min_hop_path``) therefore call the
wrapper too.  Hooks are installed only around a timed call and removed
before the gate runs, so the gate's own calls are neither traced nor
captured.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _bindings(target) -> list[tuple[object, str]]:
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "ponplace":
            continue
        found.extend((module, attr) for attr, value in vars(module).items()
                     if value is target)
    return found


@contextmanager
def patched(hooks: list[tuple[str, Callable]]):
    """Replace each ``(qualname, make_wrapper)`` target at all its bindings
    for the duration of the block.  Yields the qualnames that were not
    found."""
    undo = []
    missing = []
    try:
        for qualname, make in hooks:
            module_name, _, attr = qualname.rpartition(".")
            target = getattr(sys.modules.get(module_name), attr, None)
            if not callable(target):
                missing.append(qualname)
                continue
            wrapper = make(target)
            for module, name in _bindings(target):
                setattr(module, name, wrapper)
                undo.append((module, name, target))
        yield missing
    finally:
        for module, name, target in reversed(undo):
            setattr(module, name, target)


class Capture:
    """Arguments and return values of the named functions, so the gate can
    check the program's answers without computing them again."""

    def __init__(self, qualnames: tuple[str, ...]):
        self.qualnames = qualnames
        self.calls: dict[str, list[tuple[tuple, dict, object]]] = {
            q: [] for q in qualnames}

    def installed(self):
        return patched([(q, functools.partial(self._wrap, q))
                        for q in self.qualnames])

    def _wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[qualname].append((args, kwargs, result))
            return result
        return capture


# ---------------------------------------------------------------------------
# Counts taken at the hooked boundaries, from arguments and results.
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


def _links_built(counts, args, kwargs, result, exc):
    if exc is None:
        counts["topology.links_built"] += len(result.links)


def _served(counts, args, kwargs, result, exc):
    if exc is None:
        counts["eepiv.served"] += result.served_count
        counts["eepiv.objects"] += len(
            _arg(args, kwargs, 0, "instance").objects())


def _search(counts, args, kwargs, result, exc):
    instance = _arg(args, kwargs, 0, "instance")
    counts["milp.solve_exact.candidates"] += (len(instance.nodes)
                                              - len(instance.objects()))
    if exc is not None and type(exc).__name__ == "ResourceBudgetError":
        counts["milp.solve_exact.budget_refusals"] += 1


def _model_size(counts, args, kwargs, result, exc):
    if exc is None:
        counts["milp.build_model.variables"] += len(result.variables)
        counts["milp.build_model.rows"] += len(result.rows)


def _lp_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        names = result.with_name(result.name + ".names")
        counts["milp.emit.bytes"] += _file_bytes(result) + _file_bytes(names)


def _mps_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        counts["milp.emit.bytes"] += _file_bytes(result)


def _lines(counts, args, kwargs, result, exc):
    if exc is None:
        counts["milp.import.lines"] += len(result)


def _violations(counts, args, kwargs, result, exc):
    if exc is None:
        counts["milp.validate.violations"] += len(result.violations)


def _csv_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        counts["experiments.csv.bytes"] += _file_bytes(
            _arg(args, kwargs, 1, "path"))


@dataclass(frozen=True)
class Hook:
    group: str
    qualname: str
    count: Callable | None = None


#: Layer boundaries, named by the defining module.  A group's spans that
#: sit inside another span of the same group (``cheapest_path`` calling
#: ``cheapest_paths``) add to its self time but not to its calls or busy
#: time.
HOOKS = (
    Hook("topology.build_instance", "ponplace.topology.build_instance",
         _links_built),
    Hook("routing", "ponplace.routing.min_hop_path"),
    Hook("routing", "ponplace.routing.cheapest_path"),
    Hook("routing", "ponplace.routing.cheapest_paths"),
    Hook("eepiv.run_eepiv", "ponplace.eepiv.run_eepiv", _served),
    Hook("solution.build_flows", "ponplace.solution.build_flows"),
    Hook("power.total_objective", "ponplace.power.total_objective"),
    Hook("milp.solve_exact", "ponplace.milp.solve_exact", _search),
    Hook("milp.build_model", "ponplace.milp.build_model", _model_size),
    Hook("milp.emit", "ponplace.milp.emit_lp", _lp_bytes),
    Hook("milp.emit", "ponplace.milp.emit_mps", _mps_bytes),
    Hook("milp.import", "ponplace.milp.load_solution_values", _lines),
    Hook("milp.import", "ponplace.milp.solution_from_values"),
    Hook("milp.validate", "ponplace.milp.validate_solution", _violations),
    Hook("experiments.run_sweep", "ponplace.experiments.run_sweep"),
    Hook("experiments.csv", "ponplace.experiments.write_sweep_csv",
         _csv_bytes),
    Hook("experiments.csv", "ponplace.experiments.write_placements_csv",
         _csv_bytes),
    Hook("experiments.csv", "ponplace.experiments.write_savings_csv",
         _csv_bytes),
    Hook("cli.main", "ponplace.cli.main"),
)

#: Per-layer metrics of a traced run, with units, in report order.
PER_LAYER = (
    ("topology.build_instance.calls", "count"),
    ("topology.build_instance.busy_s", "s"),
    ("topology.links_built", "count"),
    ("routing.calls", "count"),
    ("routing.busy_s", "s"),
    ("routing.share", "ratio"),
    ("eepiv.run_eepiv.calls", "count"),
    ("eepiv.run_eepiv.self_s", "s"),
    ("eepiv.served_ratio", "ratio"),
    ("solution.build_flows.calls", "count"),
    ("solution.build_flows.self_s", "s"),
    ("power.total_objective.calls", "count"),
    ("power.total_objective.busy_s", "s"),
    ("milp.solve_exact.calls", "count"),
    ("milp.solve_exact.self_s", "s"),
    ("milp.solve_exact.candidates", "count"),
    ("milp.solve_exact.budget_refusals", "count"),
    ("milp.build_model.busy_s", "s"),
    ("milp.build_model.variables", "count"),
    ("milp.build_model.rows", "count"),
    ("milp.emit.busy_s", "s"),
    ("milp.emit.bytes", "bytes"),
    ("milp.emit.mb_per_s", "MB/s"),
    ("milp.import.busy_s", "s"),
    ("milp.import.lines", "count"),
    ("milp.validate.calls", "count"),
    ("milp.validate.busy_s", "s"),
    ("milp.validate.violations", "count"),
    ("experiments.run_sweep.self_s", "s"),
    ("experiments.csv.busy_s", "s"),
    ("experiments.csv.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.missing_hooks", "count"),
)


class Tracer:
    """Spans kept in memory as ``[name, group, parent, start, end, error]``,
    with ids given by their position in ``spans``."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        with patched([(h.qualname, functools.partial(self._wrap, h))
                      for h in self.hooks]) as missing:
            self.missing.update(missing)
            yield self

    @property
    def warnings(self) -> list[str]:
        return [f"hook {q} not found: calls through it are not traced"
                for q in sorted(self.missing)]

    def _wrap(self, hook: Hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [hook.qualname, hook.group,
                    self._stack[-1] if self._stack else None,
                    0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            exc = result = None
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                span[5] = type(error).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                if hook.count is not None:
                    hook.count(self.counts, args, kwargs, result, exc)
        return traced

    def group_times(self) -> dict[str, dict[str, float]]:
        """Per group: ``calls`` and ``busy`` over its outermost spans, and
        ``self``, each span's duration minus that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, group, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {h.group: {"calls": 0, "busy": 0.0, "self": 0.0}
               for h in self.hooks}
        for sid, (name, group, parent, start, end, _) in enumerate(self.spans):
            stats = out[group]
            stats["self"] += end - start - child_time[sid]
            p = parent
            while p is not None and self.spans[p][1] != group:
                p = self.spans[p][2]
            if p is None:
                stats["calls"] += 1
                stats["busy"] += end - start
        return out

    def metrics(self, wall_s: float, overhead_s: float) -> dict[str, float]:
        g = self.group_times()
        c = self.counts
        objects = c["eepiv.objects"]
        emit_busy = g["milp.emit"]["busy"]
        values = {
            "topology.build_instance.calls": g["topology.build_instance"]["calls"],
            "topology.build_instance.busy_s": g["topology.build_instance"]["busy"],
            "topology.links_built": c["topology.links_built"],
            "routing.calls": g["routing"]["calls"],
            "routing.busy_s": g["routing"]["busy"],
            "routing.share": g["routing"]["busy"] / wall_s,
            "eepiv.run_eepiv.calls": g["eepiv.run_eepiv"]["calls"],
            "eepiv.run_eepiv.self_s": g["eepiv.run_eepiv"]["self"],
            "eepiv.served_ratio": c["eepiv.served"] / objects if objects else 0.0,
            "solution.build_flows.calls": g["solution.build_flows"]["calls"],
            "solution.build_flows.self_s": g["solution.build_flows"]["self"],
            "power.total_objective.calls": g["power.total_objective"]["calls"],
            "power.total_objective.busy_s": g["power.total_objective"]["busy"],
            "milp.solve_exact.calls": g["milp.solve_exact"]["calls"],
            "milp.solve_exact.self_s": g["milp.solve_exact"]["self"],
            "milp.solve_exact.candidates": c["milp.solve_exact.candidates"],
            "milp.solve_exact.budget_refusals": c["milp.solve_exact.budget_refusals"],
            "milp.build_model.busy_s": g["milp.build_model"]["busy"],
            "milp.build_model.variables": c["milp.build_model.variables"],
            "milp.build_model.rows": c["milp.build_model.rows"],
            "milp.emit.busy_s": emit_busy,
            "milp.emit.bytes": c["milp.emit.bytes"],
            "milp.emit.mb_per_s": (c["milp.emit.bytes"] / 1e6 / emit_busy
                                   if emit_busy else 0.0),
            "milp.import.busy_s": g["milp.import"]["busy"],
            "milp.import.lines": c["milp.import.lines"],
            "milp.validate.calls": g["milp.validate"]["calls"],
            "milp.validate.busy_s": g["milp.validate"]["busy"],
            "milp.validate.violations": c["milp.validate.violations"],
            "experiments.run_sweep.self_s": g["experiments.run_sweep"]["self"],
            "experiments.csv.busy_s": g["experiments.csv"]["busy"],
            "experiments.csv.bytes": c["experiments.csv.bytes"],
            "cli.main.calls": g["cli.main"]["calls"],
            "cli.main.self_s": g["cli.main"]["self"],
            "trace.wall_s": wall_s,
            "trace.overhead_s": overhead_s,
            "trace.missing_hooks": len(self.missing),
        }
        return {name: values[name] for name, _ in PER_LAYER}

    def dump(self, path: Path, header: dict) -> None:
        """Write the spans, the hook warnings and ``header`` as JSON."""
        with open(path, "w") as fh:
            json.dump({**header, "warnings": self.warnings,
                       "span_fields": ["name", "group", "parent", "start_s",
                                       "end_s", "error"],
                       "spans": self.spans}, fh)

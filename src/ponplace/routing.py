"""Shortest paths on the directed uplink graph, answered from one route
table per instance and energy parameter set.

Two orders are used by the engines: cheapest path under the per-bit
objective cost (exact engine) and minimum hops, then cost (heuristic).
Remaining ties go to the lexicographically smallest node-id path.

Each route comes from a Dijkstra search from its source, kept on the
table and settled only as far as the routes asked of it need.  Costs are
summed from the source outwards and the heap orders entries by (hops,
cost, path), so exact ties and zero-cost links need no special case.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .power import EnergyParams, ModelParams, link_energies
from .topology import NetworkInstance

#: Hops added per link under each order; 0 leaves cost alone to decide.
_STEP = {"cheapest": 0, "min_hop": 1}


class Unreachable(ValueError):
    """No path between the requested endpoints."""


class _Search:
    """A Dijkstra search from one source under one order.  ``best`` maps
    each settled node to its (hops, cost, path), in settling order."""

    def __init__(self, out: dict[int, list[tuple[int, float]]], src: int,
                 step: int):
        self.out, self.step = out, step
        self.best: dict[int, tuple[int, float, tuple[int, ...]]] = {}
        #: node -> the smallest (hops, cost) pushed for it so far.
        self.pushed: dict[int, tuple[int, float]] = {}
        self.heap = [(0, 0.0, (src,))]

    def settle(self, dst: int | None = None) -> bool:
        """Settle nodes until ``dst`` is settled, or every reachable node
        when ``dst`` is None; return whether ``dst`` is settled."""
        best, pushed, heap, step = self.best, self.pushed, self.heap, self.step
        while dst not in best and heap:
            key = heappop(heap)
            hops, cost, path = key
            node = path[-1]
            if node in best:
                continue
            best[node] = key
            for nxt, w in self.out.get(node, ()):
                if nxt in best:
                    continue
                label = (hops + step, cost + w)
                # An entry above a label already pushed can never win.
                if label <= pushed.get(nxt, label):
                    pushed[nxt] = label
                    heappush(heap, (*label, path + (nxt,)))
        return dst in best


class RouteTable:
    """Every route of one instance under one ``EnergyParams``, over the
    link costs of its ``LinkEnergies``; the search from a source under an
    order is started when it is first asked for, and kept."""

    def __init__(self, instance: NetworkInstance, params: ModelParams):
        #: node -> [(next node, link cost)], in link build order.
        self._out: dict[int, list[tuple[int, float]]] = {}
        for (src, dst), (_, _, cost) in link_energies(
                instance, params.energy).links.items():
            self._out.setdefault(src, []).append((dst, cost))
        self._searches: dict[tuple[str, int], _Search] = {}

    def _search(self, order: str, src: int) -> _Search:
        search = self._searches.get((order, src))
        if search is None:
            search = self._searches[order, src] = _Search(self._out, src,
                                                          _STEP[order])
        return search

    def route(self, order: str, src: int,
              dst: int) -> tuple[int, float, tuple[int, ...]]:
        """(hops, cost, path) from ``src`` to ``dst`` under ``order``,
        ``"cheapest"`` or ``"min_hop"``; hops are 0 under ``"cheapest"``."""
        search = self._search(order, src)
        if not search.settle(dst):
            raise Unreachable(f"no path {src} -> {dst}")
        return search.best[dst]

    def reachable(self, src: int) -> list[int]:
        """``src`` and every node a path from it reaches."""
        search = self._search("cheapest", src)
        search.settle()
        return list(search.best)


def route_table(instance: NetworkInstance, params: ModelParams) -> RouteTable:
    """The instance's route table for ``params.energy``, built on first
    use.  Link costs depend on nothing else, so every scenario and
    reduction value of one instance shares it."""
    energy: EnergyParams = params.energy
    table = instance.route_tables.get(energy)
    if table is None:
        table = instance.route_tables[energy] = RouteTable(instance, params)
    return table


def cheapest_paths(instance: NetworkInstance, params: ModelParams,
                   src: int) -> dict[int, tuple[float, tuple[int, ...]]]:
    """Per-bit-cost shortest paths from ``src`` to every reachable node."""
    table = route_table(instance, params)
    return {dst: table.route("cheapest", src, dst)[1:]
            for dst in table.reachable(src)}


def cheapest_path(instance: NetworkInstance, params: ModelParams, src: int,
                  dst: int) -> tuple[float, tuple[int, ...]]:
    return route_table(instance, params).route("cheapest", src, dst)[1:]


def min_hop_path(instance: NetworkInstance, params: ModelParams, src: int,
                 dst: int) -> tuple[int, float, tuple[int, ...]]:
    """Minimum-hop path, ties broken by total per-bit cost, then by the
    smallest-node-id path.  Returns (hops, cost, path)."""
    return route_table(instance, params).route("min_hop", src, dst)

"""Shortest paths on the directed uplink graph, answered from one route
table per instance and energy parameter set.

Two orders are used by the engines: cheapest path under the per-bit
objective cost (exact engine) and minimum hops, then cost (heuristic).
Remaining ties go to the lexicographically smallest node-id path.

Objects only transmit, the OLT only receives and no link leaves an IoT
network except into the OLT.  A network's routes are therefore label
matrices from each of its nodes to each of its candidates (and the OLT),
computed once with numpy and kept on the instance.  A label is the fixed
point of ``L(s, v) = min_u L(s, u) + cost(u, v)``; costs are summed from
the source outwards, so labels and paths are bit-for-bit those of a
Dijkstra search from each source.
"""

from __future__ import annotations

import heapq
from functools import cached_property

import numpy as np

from .power import EnergyParams, ModelParams, energy_columns
from .topology import NetworkInstance

#: Largest (sources x targets x targets) temporary one label computation
#: allocates; source rows are labelled in blocks that stay below it.
BLOCK_ELEMENTS = 1 << 21


class Unreachable(ValueError):
    """No path between the requested endpoints."""


class _Order:
    """Labels and tight predecessors of one network under one order.

    ``hops``/``cost`` are (sources x targets) label lists.  A tight
    predecessor of ``v`` from ``s`` is a node whose label plus the link
    cost reproduces ``L(s, v)`` exactly; ``first`` holds the lowest one
    and ``ties`` the pairs with more than one.
    """

    def __init__(self, targets):
        self.targets = targets
        self.hops, self.cost, self.first = [], [], []
        self.ties: dict[tuple[int, int], list[int]] = {}

    def add(self, hops, cost, via, direct, sources):
        """Append the rows of one block of ``sources``.  ``via[s, v, u]`` is
        ``L(s, u) + cost(u, v)`` over targets ``u``; the source's own links
        are counted once, in ``direct``."""
        offset, targets = len(self.hops), self.targets
        own = sources[:, None] == targets[None, :]
        tight = (via == cost[:, :, None]) & np.isfinite(via) & ~own[:, None, :]
        counts = tight.sum(axis=2) + direct
        first = np.where(direct, sources[:, None],
                         targets[tight.argmax(axis=2)])
        self.hops += hops.tolist()
        self.cost += cost.tolist()
        self.first += first.tolist()
        self.ties.update(
            ((offset + i, j), [sources[i].item()] * bool(direct[i, j])
             + targets[tight[i, j]].tolist())
            for i, j in np.argwhere(counts > 1).tolist())


class _Network:
    """Route labels from every node of network ``net`` (OLT included) to
    the candidates serving it.  Each order is computed on first use."""

    def __init__(self, instance: NetworkInstance, net: int,
                 cost_of: dict[tuple[int, int], float]):
        nodes = instance.network_node_ids(net)
        self.sources = np.array(nodes)
        self.targets = np.array(instance.serving[net])
        self.row = {n: i for i, n in enumerate(nodes)}
        self.col = {n: j for j, n in enumerate(self.targets.tolist())}
        rows, cols, costs = zip(*[(self.row[src], self.col[dst], cost)
                                  for (src, dst), cost in cost_of.items()
                                  if src in self.row])
        # w[s, v]: link cost s -> v; w_in[v, u]: link cost u -> v.
        self.w = np.full((len(nodes), len(self.targets)), np.inf)
        self.w[rows, cols] = costs
        self.w_in = self.w[[self.row[t] for t in self.targets.tolist()]].T
        self.own = self.sources[:, None] == self.targets[None, :]

    def _blocks(self):
        """Slices of source rows whose temporaries fit ``BLOCK_ELEMENTS``."""
        step = max(1, BLOCK_ELEMENTS // max(1, len(self.targets) ** 2))
        return [slice(lo, lo + step)
                for lo in range(0, len(self.sources), step)]

    @cached_property
    def cheapest(self) -> _Order:
        order = _Order(self.targets)
        for rows in self._blocks():
            w, own = self.w[rows], self.own[rows]
            cost = np.where(own, 0.0, np.inf)
            while True:
                via = cost[:, None, :] + self.w_in[None]
                relaxed = np.minimum(cost, np.minimum(via.min(axis=2), w))
                if np.array_equal(relaxed, cost):
                    break
                cost = relaxed
            direct = (w == cost) & ~own
            order.add(np.zeros(cost.shape, dtype=int), cost, via, direct,
                      self.sources[rows])
        return order

    @cached_property
    def min_hop(self) -> _Order:
        order = _Order(self.targets)
        for rows in self._blocks():
            # walk[s, v]: cheapest walk of exactly k links.  A node first
            # reached at k is entered only from nodes first reached at k - 1.
            own = self.own[rows]
            hops = np.where(own, 0, -1)
            cost = np.where(own, 0.0, np.inf)
            via = np.full(cost.shape + cost.shape[1:], np.inf)
            walk, k = self.w[rows], 1
            direct = new = np.isfinite(walk) & (hops < 0)
            while new.any():
                hops[new] = k
                cost[new] = walk[new]
                step = (np.where(hops == k, cost, np.inf)[:, None, :]
                        + self.w_in[None])
                walk, k = step.min(axis=2), k + 1
                new = np.isfinite(walk) & (hops < 0)
                via[new] = step[new]
            order.add(hops, cost, via, direct, self.sources[rows])
        return order


def _settle(paths: dict[int, tuple[int, ...]],
            preds: dict[int, list[int]]) -> None:
    """Settle one group of equal labels in ``paths``, as Dijkstra would:
    smallest path first.  ``preds`` maps each node of the group to its
    tight predecessors, which lie in ``paths`` or in the group itself
    (zero-cost links make nodes of one group each other's predecessors)."""
    heap = [(paths[u] + (v,), v) for v, us in preds.items()
            for u in us if u in paths]
    heapq.heapify(heap)
    while heap:
        path, v = heapq.heappop(heap)
        if v in paths:
            continue
        paths[v] = path
        for w, us in preds.items():
            if w not in paths and v in us:
                heapq.heappush(heap, (path + (w,), w))


class RouteTable:
    """Every route of one instance under one ``EnergyParams``.  Link costs
    are computed once; the paths from a source are rebuilt from tight
    predecessors when it is first asked for, and kept."""

    def __init__(self, instance: NetworkInstance, params: ModelParams):
        link_cost = energy_columns(instance, params.energy).cost
        cost_of = {link: link_cost(link) for link in instance.links}
        self._network: dict[int, _Network] = {}
        for net in instance.networks:
            table = _Network(instance, net, cost_of)
            for n in table.sources.tolist():
                self._network.setdefault(n, table)
        self._paths: dict[tuple[str, int], dict[int, tuple[int, ...]]] = {}

    def _paths_from(self, order: str, src: int) -> dict[int, tuple[int, ...]]:
        """Every path from ``src``, settled as a Dijkstra search settles
        them: by label, and among equal labels (zero-cost links) by path.
        A node's tight predecessors therefore always come first, even
        when zero-cost links make them each other's predecessors."""
        paths = self._paths.get((order, src))
        if paths is not None:
            return paths
        table = self._network[src]
        labels: _Order = getattr(table, order)
        i, targets = table.row[src], table.targets.tolist()
        hops, cost, first = labels.hops[i], labels.cost[i], labels.first[i]
        ties = labels.ties
        reached = sorted((hops[j], cost[j], j) for j, t in enumerate(targets)
                         if cost[j] != np.inf and t != src)
        paths = {src: (src,)}
        group = []
        for k, (h, c, j) in enumerate(reached, 1):
            group.append(j)
            if k < len(reached) and reached[k][0] == h and reached[k][1] == c:
                continue  # the next node carries the same label
            if len(group) == 1:
                # Alone in its label group: its tight predecessors all
                # carry smaller labels, so they are settled already.
                v, us = targets[j], ties.get((i, j))
                paths[v] = (paths[first[j]] + (v,) if us is None
                            else min(paths[u] + (v,) for u in us))
            else:
                _settle(paths, {targets[j]: ties.get((i, j), (first[j],))
                                for j in group})
            group = []
        self._paths[(order, src)] = paths
        return paths

    def route(self, order: str, src: int,
              dst: int) -> tuple[int, float, tuple[int, ...]]:
        """(hops, cost, path) from ``src`` to ``dst`` under ``order``,
        ``"cheapest"`` or ``"min_hop"``; hops are 0 under ``"cheapest"``."""
        if src == dst:
            return 0, 0.0, (src,)
        table = self._network[src]
        labels: _Order = getattr(table, order)
        i, j = table.row[src], table.col.get(dst)
        if j is None or labels.cost[i][j] == np.inf:
            raise Unreachable(f"no path {src} -> {dst}")
        return (labels.hops[i][j], labels.cost[i][j],
                self._paths_from(order, src)[dst])

    def reachable(self, src: int) -> list[int]:
        """``src`` and every node a path from it reaches."""
        table = self._network[src]
        row = table.cheapest.cost[table.row[src]]
        return [src] + [t for t, c in zip(table.targets.tolist(), row)
                        if c != np.inf and t != src]


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

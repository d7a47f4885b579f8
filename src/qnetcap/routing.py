"""End-to-end capacity computation on bounded graphs.

Single-path capacity is the widest-path bottleneck between the end users;
flooding capacity is the undirected max flow, equal to the minimum cut. Both
are evaluated on either the lower or the upper edge annotation. The
exhaustive enumeration oracles and the flow feasibility check that gate these
algorithms live in ``oracles.py``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DomainError
from .network import BoundedGraph, Cut, check_selector, end_users, min_neighbourhood_capacity

# Residual capacities at or below this are treated as saturated.
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class PathResult:
    """Widest-path outcome: bottleneck value and the node sequence used."""

    value: float
    path: tuple[str, ...]


@dataclass(frozen=True)
class FlowResult:
    """Max-flow outcome: value, a minimum cut, and a feasible flow.

    ``flows`` maps a directed node pair to the non-negative flow routed that
    way; each undirected edge appears at most once, oriented with its net flow.
    """

    value: float
    mincut: Cut
    flows: dict


def _adjacency(bg: BoundedGraph, selector: str):
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in bg.nodes}
    for e in bg.edges:
        value = e.value(selector)
        adj[e.a].append((e.b, value))
        adj[e.b].append((e.a, value))
    return adj


def widest_path(bg: BoundedGraph, selector: str) -> PathResult:
    """Maximize the bottleneck edge value over all end-to-end paths.

    Greedy best-first relaxation (max-min analogue of shortest path); ties in
    width resolve toward lexicographically smaller node ids. Disconnected
    users give value 0 and an empty path.
    """
    check_selector(selector)
    alpha, beta = end_users(bg)
    adj = _adjacency(bg, selector)
    width = {alpha: math.inf}
    pred: dict[str, str] = {}
    done = set()
    heap: list[tuple[float, str]] = [(-math.inf, alpha)]
    while heap:
        neg_w, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == beta:
            break
        for v, value in adj[u]:
            if v in done:
                continue
            w = min(width[u], value)
            if w > width.get(v, -1.0):
                width[v] = w
                pred[v] = u
                heapq.heappush(heap, (-w, v))
    if beta not in done:
        return PathResult(0.0, ())
    path = [beta]
    while path[-1] != alpha:
        path.append(pred[path[-1]])
    path.reverse()
    return PathResult(width[beta], tuple(path))


class _Dinic:
    """Level-graph blocking-flow max flow over paired opposing arcs.

    Each phase labels the residual graph only up to the sink's level (see
    ``_bfs``), which is all the phase's blocking flow can use.
    """

    def __init__(self):
        self.index: dict[str, int] = {}
        self.adj: list[list[int]] = []
        self.to: list[int] = []
        self.cap: list[float] = []

    def node(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.adj)
            self.adj.append([])
        return self.index[name]

    def add_undirected(self, a: str, b: str, capacity: float) -> int:
        """Both directions share the capacity; returns the arc id for a->b."""
        u, v = self.node(a), self.node(b)
        arc = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((capacity, capacity))
        self.adj[u].append(arc)
        self.adj[v].append(arc + 1)
        return arc

    def _bfs(self, s: int, t: int) -> list[int] | None:
        """Level graph of the residual arcs, cut off at the sink's level.

        The queue is in level order, so once its next node is at ``level[t]``
        every node of that level is labelled, and none of them but t can reach
        t along level-increasing arcs. Expansion stops there: the blocking
        flow's DFS would only enter such a node to retreat from it, so the
        augmenting paths and their amounts are those of a full labelling.
        """
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            if level[u] == level[t]:
                break
            for arc in self.adj[u]:
                v = self.to[arc]
                if level[v] < 0 and self.cap[arc] > RESIDUAL_TOL:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level, it) -> float:
        """Push one path found by iterative DFS in the level graph; 0.0 when blocked."""
        path: list[int] = []
        u = s
        while u != t:
            if it[u] == len(self.adj[u]):  # dead end: retreat, skip the arc into u
                if not path:
                    return 0.0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
                continue
            arc = self.adj[u][it[u]]
            if self.cap[arc] > RESIDUAL_TOL and level[self.to[arc]] == level[u] + 1:
                path.append(arc)
                u = self.to[arc]
            else:
                it[u] += 1
        pushed = min(self.cap[arc] for arc in path)
        for arc in path:
            self.cap[arc] -= pushed
            self.cap[arc ^ 1] += pushed
        return pushed

    def run(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * len(self.adj)
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed <= 0.0:
                    break
                total += pushed

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for arc in self.adj[u]:
                v = self.to[arc]
                if v not in seen and self.cap[arc] > RESIDUAL_TOL:
                    seen.add(v)
                    queue.append(v)
        return seen


def max_flow(bg: BoundedGraph, selector: str) -> FlowResult:
    """Undirected max flow between the end users, with its minimum cut.

    The reported cut is the set reachable from the first user in the final
    residual graph (deterministic). The end users must be two distinct graph
    nodes and the edge values finite. Dinic phases label nodes no further from
    the first user than the second is; nodes past that level carry no
    augmenting path of the phase, so value, cut and flows are those of a
    full labelling.
    """
    check_selector(selector)
    alpha, beta = end_users(bg)
    solver = _Dinic()
    s = solver.node(alpha)
    t = solver.node(beta)
    for n in bg.nodes:
        solver.node(n)
    arcs = []
    for e in bg.edges:
        value = e.value(selector)
        if not math.isfinite(value):
            raise DomainError(f"edge {e.a}-{e.b} has non-finite value {value}")
        arcs.append(solver.add_undirected(e.a, e.b, value))
    value = solver.run(s, t)
    reach = solver.reachable(s)
    names = {idx: name for name, idx in solver.index.items()}
    a_side = frozenset(names[i] for i in reach)
    b_side = frozenset(bg.nodes) - a_side
    cut_edges = tuple(
        sorted(e.key() for e in bg.edges if (e.a in a_side) != (e.b in a_side))
    )
    flows = {}
    for e, arc in zip(bg.edges, arcs):
        net = e.value(selector) - solver.cap[arc]
        if abs(net) <= RESIDUAL_TOL:
            continue
        if net >= 0.0:
            flows[(e.a, e.b)] = net
        else:
            flows[(e.b, e.a)] = -net
    return FlowResult(value, Cut(a_side, b_side, cut_edges), flows)


@dataclass(frozen=True)
class CapacityReport:
    """The six end-to-end numbers for one bounded graph."""

    single_path_lower: float
    single_path_upper: float
    flooding_lower: float
    flooding_upper: float
    min_neighbourhood_lower: float
    min_neighbourhood_upper: float
    upper_mincut: Cut | None = None  # the minimum cut certifying flooding_upper

    def as_dict(self) -> dict:
        return {
            "single_path": {"lower": self.single_path_lower, "upper": self.single_path_upper},
            "flooding": {"lower": self.flooding_lower, "upper": self.flooding_upper},
            "min_neighbourhood": {
                "lower": self.min_neighbourhood_lower,
                "upper": self.min_neighbourhood_upper,
            },
        }


def capacity_report(bg: BoundedGraph) -> CapacityReport:
    upper_flow = max_flow(bg, "upper")
    return CapacityReport(
        single_path_lower=widest_path(bg, "lower").value,
        single_path_upper=widest_path(bg, "upper").value,
        flooding_lower=max_flow(bg, "lower").value,
        flooding_upper=upper_flow.value,
        min_neighbourhood_lower=min_neighbourhood_capacity(bg, "lower"),
        min_neighbourhood_upper=min_neighbourhood_capacity(bg, "upper"),
        upper_mincut=upper_flow.mincut,
    )


def cut_to_json(cut: Cut) -> dict:
    return {
        "A": sorted(cut.a_side),
        "B": sorted(cut.b_side),
        "edges": [list(pair) for pair in cut.edges],
    }

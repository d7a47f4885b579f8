"""End-to-end capacity computation on bounded graphs.

Single-path capacity is the widest-path bottleneck between the end users;
flooding capacity is the undirected max flow, equal to the minimum cut. Both
are evaluated on either the lower or the upper edge annotation.

The min-neighbourhood capacity is the multi-edge capacity of the cut that
isolates one end user: the smaller of the two users' incident-edge value sums.
It upper-bounds the flooding (max-flow) capacity because it is itself a cut.

All of these run on one arc structure (``_arcs``), built once per report from
the graph's endpoint numbers, which ``BoundedGraph`` checked when it was built.
``BoundedGraph``, which ``network.apply_split`` and ``network.annotate_uniform``
build, and ``Cut`` are defined here. The exhaustive enumeration oracles and the
flow feasibility check that gate these algorithms live in ``oracles.py``.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, checked
from .network import _check_users

if TYPE_CHECKING:
    from .bounds import BoundKind

SELECTORS = ("lower", "upper")
BOUND_ORDER_TOL = 1e-12  # how far rounding may take a lower bound above its upper


def check_selector(selector: str) -> str:
    if selector not in SELECTORS:
        raise DomainError(f"selector must be 'lower' or 'upper', got {selector!r}")
    return selector


@checked
class BoundedGraph(NamedTuple):
    """A graph's edge bounds as columns, one entry per edge.

    Edge i joins node numbers ``a[i]`` and ``b[i]`` (indexes into ``nodes``);
    each side has its value, bound kind and sender, the node its chosen
    direction sends from. Construction is the one gate, raising DomainError
    unless ``users`` is a pair of names, every endpoint numbers a node and
    0 <= lower <= upper (within ``BOUND_ORDER_TOL``). NaN and inf pass;
    ``max_flow`` rejects them.
    """

    nodes: tuple[str, ...]
    users: tuple[str, str]
    a: tuple[int, ...]
    b: tuple[int, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lower_kind: tuple[BoundKind, ...]
    upper_kind: tuple[BoundKind, ...]
    lower_sender: tuple[int, ...]
    upper_sender: tuple[int, ...]

    def _check(self):
        columns = (self.b, self.lower, self.upper, self.lower_kind, self.upper_kind,
                   self.lower_sender, self.upper_sender)
        if any(len(column) != len(self.a) for column in columns):
            raise DomainError("bounded graph columns must have one entry per edge")
        _check_users(self.users)
        n = len(self.nodes)
        for i, (u, v, lower, upper) in enumerate(zip(self.a, self.b, self.lower, self.upper)):
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge #{i}: endpoints ({u}, {v}) must number nodes 0 to {n - 1}")
            if lower < 0.0:
                raise DomainError(f"lower bound must be >= 0, got {lower}")
            if upper < lower - BOUND_ORDER_TOL:
                raise DomainError(f"bounds out of order: lower {lower} > upper {upper}")

    def values(self, selector: str) -> tuple[float, ...]:
        """The ``lower`` or the ``upper`` column."""
        return self.lower if check_selector(selector) == "lower" else self.upper


class Cut(NamedTuple):
    """Bipartition of the node set separating the two end users."""

    a_side: frozenset
    b_side: frozenset
    edges: tuple[tuple[str, str], ...]



# Residual capacities at or below this are treated as saturated.
RESIDUAL_TOL = 1e-12


class PathResult(NamedTuple):
    """Widest-path outcome: bottleneck value and the node sequence used."""

    value: float
    path: tuple[str, ...]


class FlowResult(NamedTuple):
    """Max-flow outcome: value, a minimum cut, and a feasible flow.

    ``flows`` maps a directed node pair to the non-negative flow routed that
    way; each undirected edge appears at most once, oriented with its net flow.
    """

    value: float
    mincut: Cut
    flows: dict


def end_users(bg: BoundedGraph) -> tuple[str, str]:
    """The two end users, which must be distinct nodes of the graph."""
    alpha, beta = bg.users
    if alpha == beta or alpha not in bg.nodes or beta not in bg.nodes:
        raise DomainError(f"end users {bg.users} must be two distinct graph nodes")
    return alpha, beta


def _arcs(bg: BoundedGraph):
    """The one arc structure every computation on ``bg`` runs on.

    Returns (s, t, head, out) over the node numbers of ``bg``: the end users,
    each arc's end node (arc 2i runs a -> b along edge i, arc 2i+1 back) and
    each node's outgoing arcs in edge order.
    """
    alpha, beta = end_users(bg)
    head = [0] * (2 * len(bg.a))
    head[0::2] = bg.b
    head[1::2] = bg.a
    out: list[list[int]] = [[] for _ in bg.nodes]
    for i, (u, v) in enumerate(zip(bg.a, bg.b)):
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    return bg.nodes.index(alpha), bg.nodes.index(beta), head, out


def _widest_path(bg: BoundedGraph, values, s: int, t: int, head, out) -> PathResult:
    names = bg.nodes
    width = [-1.0] * len(names)
    width[s] = math.inf
    pred = [-1] * len(names)
    heap = [(-math.inf, names[s], s)]
    while heap:
        neg_w, _, u = heapq.heappop(heap)
        if -neg_w < width[u]:
            continue  # superseded by a wider entry, popped earlier
        if u == t:
            break
        wu = width[u]
        for arc in out[u]:
            v = head[arc]
            w = value if (value := values[arc >> 1]) < wu else wu  # min(wu, value): wu wins ties and NaN
            if w > width[v]:  # never true for a node already popped
                width[v] = w
                pred[v] = u
                heapq.heappush(heap, (-w, names[v], v))
    if pred[t] < 0:  # t never reached
        return PathResult(0.0, ())
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    return PathResult(width[t], tuple(names[u] for u in reversed(path)))


def widest_path(bg: BoundedGraph, selector: str) -> PathResult:
    """Maximize the bottleneck edge value over all end-to-end paths.

    Greedy best-first relaxation (max-min analogue of shortest path); ties in
    width resolve toward lexicographically smaller node ids. Disconnected
    users give value 0 and an empty path.
    """
    return _widest_path(bg, bg.values(selector), *_arcs(bg))


class _Dinic:
    """Level-graph blocking-flow max flow over paired opposing arcs.

    ``adj`` and ``to`` come from ``_arcs``; ``cap`` holds residual capacities.
    Each phase labels the residual graph only up to the sink's level (see
    ``_bfs``), which is all the phase's blocking flow can use.
    """

    def __init__(self, adj: list[list[int]], to: list[int], cap: list[float]):
        self.adj = adj
        self.to = to
        self.cap = cap

    def _bfs(self, s: int, t: int) -> list[int]:
        """Level graph of the residual arcs, cut off at the sink's level.

        The queue is in level order, so once its next node is at ``level[t]``
        every node of that level is labelled, and none of them but t can reach
        t along level-increasing arcs. Expansion stops there: the blocking
        flow's DFS would only enter such a node to retreat from it, so the
        augmenting paths and their amounts are those of a full labelling.
        When t is unreachable (``level[t] < 0``) nothing is cut off, and the
        labelled nodes are exactly those reachable from s.
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
        return level

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

    def run(self, s: int, t: int) -> tuple[float, list[int]]:
        """Max-flow value and the last phase's labelling, which leaves t
        unlabelled and so marks the source side of a minimum cut."""
        total = 0.0
        while True:
            level = self._bfs(s, t)
            if level[t] < 0:
                return total, level
            it = [0] * len(self.adj)
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed <= 0.0:
                    break
                total += pushed


def _max_flow(bg: BoundedGraph, values, s: int, t: int, head, out) -> tuple[float, list[int], list[float]]:
    """Max-flow value, the last phase's labelling and the residual capacities."""
    for u, v, value in zip(bg.a, bg.b, values):
        if not math.isfinite(value):
            raise DomainError(f"edge {bg.nodes[u]}-{bg.nodes[v]} has non-finite value {value}")
    cap = [c for c in values for _ in (0, 1)]  # arcs 2i and 2i+1 share edge i
    return (*_Dinic(out, head, cap).run(s, t), cap)


def _mincut(bg: BoundedGraph, level: list[int]) -> Cut:
    names, on_a = bg.nodes, [lv >= 0 for lv in level]
    a_side = frozenset(name for name, on in zip(names, on_a) if on)
    edges = sorted(tuple(sorted((names[u], names[v]))) for u, v in zip(bg.a, bg.b) if on_a[u] != on_a[v])
    return Cut(a_side, frozenset(names) - a_side, tuple(edges))


def max_flow(bg: BoundedGraph, selector: str) -> FlowResult:
    """Undirected max flow between the end users, with its minimum cut.

    The end users must be two distinct graph nodes and the edge values
    finite. Dinic phases label nodes no further from the first user than the
    second is; nodes past that level carry no augmenting path of the phase,
    so value, cut and flows are those of a full labelling. The reported cut
    is the last phase's labelling: the set reachable from the first user in
    the final residual graph (deterministic).
    """
    names, values = bg.nodes, bg.values(selector)
    value, level, cap = _max_flow(bg, values, *_arcs(bg))
    flows = {}
    for u, v, capacity, residual in zip(bg.a, bg.b, values, cap[0::2]):
        net = capacity - residual
        if net > RESIDUAL_TOL:
            flows[(names[u], names[v])] = net
        elif net < -RESIDUAL_TOL:
            flows[(names[v], names[u])] = -net
    return FlowResult(value, _mincut(bg, level), flows)


def _isolation(values, s: int, t: int, head, out) -> float:
    return min(sum(values[arc >> 1] for arc in out[user]) for user in (s, t))


def min_neighbourhood_capacity(bg: BoundedGraph, selector: str) -> float:
    """Value of the cheaper of the two user-isolating cuts."""
    return _isolation(bg.values(selector), *_arcs(bg))


class CapacityReport(NamedTuple):
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
    """The six numbers, read off one arc structure of ``bg``.

    Each side's edge values are read once and serve its widest path, max flow
    and isolation cut. The upper flow goes first, so a non-finite edge value
    raises the error ``max_flow(bg, "upper")`` would. Only its cut is built.
    """
    arcs = _arcs(bg)
    lo, up = bg.lower, bg.upper
    upper_value, upper_level, _ = _max_flow(bg, up, *arcs)
    return CapacityReport(
        single_path_lower=_widest_path(bg, lo, *arcs).value,
        single_path_upper=_widest_path(bg, up, *arcs).value,
        flooding_lower=_max_flow(bg, lo, *arcs)[0],
        flooding_upper=upper_value,
        min_neighbourhood_lower=_isolation(lo, *arcs),
        min_neighbourhood_upper=_isolation(up, *arcs),
        upper_mincut=_mincut(bg, upper_level),
    )


def cut_to_json(cut: Cut) -> dict:
    return {
        "A": sorted(cut.a_side),
        "B": sorted(cut.b_side),
        "edges": [list(pair) for pair in cut.edges],
    }

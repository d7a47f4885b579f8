"""Brute-force verifiers for the channel algebra and the routing algorithms.

Everything here recomputes quantities the rest of the package obtains from
formulas or fast algorithms, using a different route: explicit Kraus action on
qubit density matrices, von Neumann entropies from closed-form 2x2 spectra,
Gaussian covariance propagation for thermal-loss chains, exhaustive cut and
path enumeration on small graphs, a capacity and conservation check of a
max-flow result, closed-form sizes and weak regularity of generated lattice
patches, and the flooding = k*c consequence on uniformly valued lattices.
``oriented_edge_bounds`` is the per-edge reference for ``network.apply_split``,
and ``bounded_from_values`` builds the small test graphs the routing oracles
run on. The tests and the ``selfcheck`` batteries pit these against the fast
paths, which never depend on this module.

Every matrix here is 2x2. Inputs are read as ``m[i][j]``, so nested lists and
numpy arrays both serve, and results are nested tuples: the module needs only
the standard library.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .bounds import BoundKind, direction_bounds, family_native, orient
from .channels import ChannelSpec, FibreParams, NodeSpec
from .errors import DomainError, KrausError, SizeError
from .network import BoundedGraph, Cut, NetworkGraph, annotate_uniform, check_selector
from .routing import FlowResult, max_flow, min_neighbourhood_capacity
from .wrn import CELL_TRIANGULAR, WrnSpec, generate

# Eigenvalues at or below this are treated as exact zeros inside entropies.
EIG_ZERO_TOL = 1e-14
MATRIX_TOL = 1e-12
# Hard cap for the exhaustive bipartition scan (2^(n-2) cuts).
BRUTE_FORCE_MAX_NODES = 22

Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


def _matrix(m, name: str, kind=complex, error=DomainError) -> Matrix:
    """``m`` as a 2x2 tuple of ``kind`` entries; ``error`` for any other shape."""
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise error(f"{name} must be 2x2, got {len(m)} rows")
    return tuple(tuple(kind(x) for x in row) for row in m)


def _mul(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2))


def _dagger(x: Matrix) -> Matrix:
    return tuple(tuple(x[j][i].conjugate() for j in range(2)) for i in range(2))


def _sum(terms: Iterable[Matrix]) -> Matrix:
    terms = list(terms)
    return tuple(tuple(sum(t[i][j] for t in terms) for j in range(2)) for i in range(2))


def eigvalsh2(m) -> tuple[float, float]:
    """Ascending eigenvalues of a 2x2 Hermitian matrix, in closed form.

    They are c - r and c + r, with c the mean of the diagonal and
    r = hypot((m00 - m11) / 2, |m01|). Only the diagonal and ``m[0][1]`` are read.
    """
    a, d = complex(m[0][0]).real, complex(m[1][1]).real
    c = 0.5 * (a + d)
    r = math.hypot(0.5 * (a - d), abs(m[0][1]))
    return c - r, c + r


class QubitChannel:
    """A qubit channel given by its Kraus operators, stored as 2x2 tuples."""

    __slots__ = ("kraus",)

    def __init__(self, kraus):
        if not kraus:
            raise KrausError("a channel needs at least one Kraus operator")
        kraus = tuple(_matrix(k, "Kraus operator", error=KrausError) for k in kraus)
        total = _sum(_mul(_dagger(k), k) for k in kraus)
        if not all(abs(total[i][j] - (i == j)) <= MATRIX_TOL for i in range(2) for j in range(2)):
            raise KrausError("Kraus set is not trace preserving")
        object.__setattr__(self, "kraus", kraus)

    def __setattr__(self, name, *value):  # frozen: the Kraus set was checked once
        raise AttributeError(f"cannot assign to QubitChannel.{name}")

    __delattr__ = __setattr__


def ad_channel(p: float) -> QubitChannel:
    """Amplitude damping: K0 = |0><0| + sqrt(1-p)|1><1|, K1 = sqrt(p)|0><1|."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"damping probability must lie in [0, 1], got {p}")
    return QubitChannel((((1.0, 0.0), (0.0, math.sqrt(1.0 - p))), ((0.0, math.sqrt(p)), (0.0, 0.0))))


def apply_channel(channel: QubitChannel, rho) -> Matrix:
    """Sum_i K_i rho K_i^dagger."""
    rho = _matrix(rho, "density matrix")
    return _sum(_mul(_mul(k, rho), _dagger(k)) for k in channel.kraus)


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a 2x2 density matrix; tiny eigenvalues count as 0."""
    lam = eigvalsh2(_matrix(rho, "density matrix"))
    return -sum(x * math.log2(x) for x in lam if x > EIG_ZERO_TOL)


def ad_rci_at_u(p: float, u: float) -> float:
    """Reverse coherent information of AD(p) for input excitation u.

    Purifies diag(1-u, u) as sqrt(1-u)|00> + sqrt(u)|11> and damps the second
    qubit. Kraus operator K_k leaves the branch with amplitudes
    M_k[a][b] = s_a K_k[b][a], where s = (sqrt(1-u), sqrt(u)). Then
    rho_A = sum_k M_k M_k^dagger, and the nonzero spectrum of
    rho_AB = sum_k |M_k><M_k| is that of the 2x2 Gram matrix <M_k, M_l>.
    Returns S(rho_A) - S(rho_AB).
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"input excitation must lie in [0, 1], got {u}")
    s = (math.sqrt(1.0 - u), math.sqrt(u))
    branches = [tuple(tuple(s[a] * k[b][a] for b in range(2)) for a in range(2))
                for k in ad_channel(p).kraus]
    rho_a = _sum(_mul(m, _dagger(m)) for m in branches)
    gram = tuple(tuple(sum(x.conjugate() * y for rk, rl in zip(mk, ml) for x, y in zip(rk, rl))
                       for ml in branches) for mk in branches)
    return von_neumann_entropy(rho_a) - von_neumann_entropy(gram)


def check_covariance(v) -> Matrix:
    """Validate a single-mode covariance matrix (vacuum = I/2 convention)."""
    v = _matrix(v, "covariance matrix", float)
    if not abs(v[0][1] - v[1][0]) <= MATRIX_TOL:
        raise DomainError("covariance matrix is not symmetric")
    if not eigvalsh2(v)[0] > 0.0:
        raise DomainError("covariance matrix is not positive definite")
    if not v[0][0] * v[1][1] - v[0][1] * v[1][0] >= 0.25 - MATRIX_TOL:
        raise DomainError("covariance matrix violates the uncertainty bound det V >= 1/4")
    return v


def gaussian_propagate(v, channels) -> Matrix:
    """Push a covariance matrix through a chain of thermal-loss channels.

    Each step maps V -> tau*V + (nbar + |1-tau|/2)*I. An empty chain returns
    the input's entries unchanged.
    """
    out = check_covariance(v)
    for tau, nbar in channels:
        if not 0.0 < tau <= 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
        if not nbar >= 0.0:
            raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
        noise = nbar + 0.5 * abs(1.0 - tau)
        out = tuple(tuple(tau * x + (noise if i == j else 0.0) for j, x in enumerate(row))
                    for i, row in enumerate(out))
    return out


class OrientedBounds(NamedTuple):
    """One edge's bounds, each with its kind and chosen (sender, receiver)."""

    lower: float
    upper: float
    lower_orientation: tuple[str, str]
    upper_orientation: tuple[str, str]
    lower_kind: BoundKind
    upper_kind: BoundKind


def oriented_edge_bounds(edge: ChannelSpec | FibreParams, node_a: NodeSpec, node_b: NodeSpec,
                         fam: str) -> OrientedBounds:
    """Bounds of one edge, a channel or a fibre, in the graph family ``fam``, each side's
    direction chosen by ``bounds.orient``: the per-edge reference for ``apply_split``."""
    native = family_native(fam)
    channel = native(edge)
    forward = direction_bounds(fam, native(node_a.send), channel, native(node_b.recv))
    backward = direction_bounds(fam, native(node_b.send), channel, native(node_a.recv))
    lower_back, upper_back = orient(node_a.id, node_b.id, forward, backward)
    ends = ((node_a.id, node_b.id), (node_b.id, node_a.id))
    lower, lower_kind, _, _ = (forward, backward)[lower_back]
    _, _, upper, upper_kind = (forward, backward)[upper_back]
    return OrientedBounds(lower, upper, ends[lower_back], ends[upper_back], lower_kind, upper_kind)


def bounded_from_values(edge_values: Iterable[tuple], users: tuple[str, str]) -> BoundedGraph:
    """Build a BoundedGraph from (a, b, value) or (a, b, lower, upper) rows."""
    rows = [(u, v, values[0], values[-1]) for u, v, *values in edge_values]
    names = tuple(dict.fromkeys([*(end for row in rows for end in row[:2]), *users]))
    number = {name: i for i, name in enumerate(names)}
    a = tuple(number[row[0]] for row in rows)
    b = tuple(number[row[1]] for row in rows)
    exact = (BoundKind.PLOB_EXACT,) * len(rows)
    lower, upper = tuple(row[2] for row in rows), tuple(row[3] for row in rows)
    return BoundedGraph(names, users, a, b, lower, upper, exact, exact, a, a)


def _named_edges(bg: BoundedGraph, selector: str) -> list[tuple[str, str, float]]:
    """(a, b, value) of every edge on one bound side, with node names."""
    return [(bg.nodes[u], bg.nodes[v], value) for u, v, value in zip(bg.a, bg.b, bg.values(selector))]


def check_flow_feasible(result: FlowResult, bg: BoundedGraph, selector: str, tol: float = 1e-9) -> None:
    """Raise if the flow violates capacities or conservation."""
    net = {n: 0.0 for n in bg.nodes}
    caps = {(a, b) if a <= b else (b, a): value for a, b, value in _named_edges(bg, selector)}
    for (u, v), f in result.flows.items():
        if f < -tol:
            raise DomainError(f"negative flow on {u}->{v}")
        key = (u, v) if u <= v else (v, u)
        if f > caps[key] + tol:
            raise DomainError(f"flow {f} exceeds capacity {caps[key]} on {u}-{v}")
        net[u] -= f
        net[v] += f
    alpha, beta = bg.users
    for n in bg.nodes:
        if n in (alpha, beta):
            continue
        if abs(net[n]) > tol:
            raise DomainError(f"flow not conserved at {n}: {net[n]}")
    if abs(net[beta] - result.value) > tol or abs(net[alpha] + result.value) > tol:
        raise DomainError("flow into users does not match the reported value")


def cut_value(bg: BoundedGraph, selector: str, a_side) -> float:
    """Sum of edge values crossing a bipartition."""
    a_side = frozenset(a_side)
    return sum(value for a, b, value in _named_edges(bg, selector) if (a in a_side) != (b in a_side))


def brute_force_min_cut(bg: BoundedGraph, selector: str) -> tuple[float, Cut]:
    """Exhaustively scan all 2^(n-2) user-separating bipartitions."""
    check_selector(selector)
    if len(bg.nodes) > BRUTE_FORCE_MAX_NODES:
        raise SizeError(f"{len(bg.nodes)} nodes exceeds the cap of {BRUTE_FORCE_MAX_NODES}")
    alpha, beta = bg.users
    others = sorted(n for n in bg.nodes if n not in (alpha, beta))
    best_value = math.inf
    best_side: frozenset | None = None
    for mask in range(2 ** len(others)):
        a_side = {alpha}
        for i, n in enumerate(others):
            if mask >> i & 1:
                a_side.add(n)
        value = cut_value(bg, selector, a_side)
        if value < best_value:
            best_value = value
            best_side = frozenset(a_side)
    cut_edges = tuple(sorted(
        (a, b) if a <= b else (b, a)
        for a, b, _ in _named_edges(bg, selector) if (a in best_side) != (b in best_side)
    ))
    return best_value, Cut(best_side, frozenset(bg.nodes) - best_side, cut_edges)


def brute_force_widest_path(bg: BoundedGraph, selector: str) -> float:
    """Best bottleneck over every simple path, by exhaustive DFS."""
    check_selector(selector)
    if len(bg.nodes) > BRUTE_FORCE_MAX_NODES:
        raise SizeError(f"{len(bg.nodes)} nodes exceeds the cap of {BRUTE_FORCE_MAX_NODES}")
    alpha, beta = bg.users
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in bg.nodes}
    for a, b, value in _named_edges(bg, selector):
        adj[a].append((b, value))
        adj[b].append((a, value))
    best = 0.0
    on_path = {alpha}

    def go(u: str, width: float):
        nonlocal best
        if u == beta:
            best = max(best, width)
            return
        for v, value in adj[u]:
            if v not in on_path:
                on_path.add(v)
                go(v, min(width, value))
                on_path.remove(v)

    go(alpha, math.inf)
    return best


def node_count(spec: WrnSpec) -> int:
    """Closed-form node count of the patch ``generate`` builds."""
    rings = 2 * spec.radius
    if spec.cell_type == CELL_TRIANGULAR:
        return 3 * rings * rings + 3 * rings + 1
    return (2 * rings + 1) ** 2


def edge_count(spec: WrnSpec) -> int:
    """Closed-form edge count of the patch ``generate`` builds."""
    rings = 2 * spec.radius
    if spec.cell_type == CELL_TRIANGULAR:
        return 9 * rings * rings + 3 * rings
    return 16 * rings * rings + 4 * rings


def check_weak_regularity(graph: NetworkGraph, spec: WrnSpec) -> None:
    """Interior nodes must have degree k and a commonality multiset in the superset."""
    neighbours: list[set[int]] = [set() for _ in graph.names]
    for u, v in zip(graph.a, graph.b):
        neighbours[u].add(v)
        neighbours[v].add(u)
    allowed = {tuple(sorted(lam)) for lam in spec.commonalities}
    for node, nbrs in zip(graph.names, neighbours):
        if len(nbrs) != spec.k:
            continue  # boundary node of the finite patch
        lam = tuple(sorted(len(neighbours[other] & nbrs) for other in nbrs))
        if lam not in allowed:
            raise DomainError(f"node {node} has commonality multiset {lam}, outside the superset")
    for user in graph.users:
        if len(neighbours[graph.names.index(user)]) != spec.k:
            raise DomainError(f"end user {user} is not an interior node")


def verify_theorem2(spec: WrnSpec, edge_value: float, tol: float = 1e-9) -> bool:
    """Check the uniform-value consequence: flooding capacity equals k * c.

    Annotates the generated lattice with the exact uniform value and compares
    the max-flow result against k * c and against the user-isolation cut.
    """
    if not isinstance(spec, WrnSpec):
        raise DomainError("verify_theorem2 needs a WrnSpec; arbitrary graphs are not weakly regular")
    if not edge_value > 0.0:
        raise DomainError(f"edge value must be > 0, got {edge_value}")
    bg = annotate_uniform(generate(spec), edge_value)
    flood = max_flow(bg, "lower").value
    isolation = min_neighbourhood_capacity(bg, "lower")
    expected = spec.k * edge_value
    return abs(flood - expected) <= tol and abs(isolation - expected) <= tol

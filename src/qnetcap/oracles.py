"""Brute-force verifiers for the channel algebra and the routing algorithms.

Everything here recomputes quantities the rest of the package obtains from
formulas or fast algorithms, using a different route: explicit Kraus action on
density matrices, eigenvalue-based von Neumann entropies of Choi states,
Gaussian covariance propagation for thermal-loss chains, exhaustive cut and
path enumeration on small graphs, a capacity and conservation check of a
max-flow result, closed-form sizes and weak regularity of generated lattice
patches, and the flooding = k*c consequence on uniformly valued lattices.
``oriented_edge_bounds`` is the per-edge reference for ``network.apply_split``,
and ``bounded_from_values`` builds the small test graphs the routing oracles
run on. The tests and the ``selfcheck`` batteries pit these against the fast
paths, which never depend on this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .bounds import BoundKind, direction_bounds, family_native, orient
from .channels import ChannelSpec, NodeSpec
from .errors import DomainError, KrausError, SizeError
from .network import BoundedGraph, Cut, NetworkGraph, annotate_uniform, check_selector
from .routing import FlowResult, max_flow, min_neighbourhood_capacity
from .wrn import CELL_TRIANGULAR, WrnSpec, generate

# Eigenvalues at or below this are treated as exact zeros inside entropies.
EIG_ZERO_TOL = 1e-14
MATRIX_TOL = 1e-12
# Hard cap for the exhaustive bipartition scan (2^(n-2) cuts).
BRUTE_FORCE_MAX_NODES = 22

_I2 = np.eye(2, dtype=complex)
# Maximally entangled 2-qubit ket (|00> + |11>) / sqrt(2).
_BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class QubitChannel:
    """A qubit channel given by its Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise KrausError("a channel needs at least one Kraus operator")
        total = np.zeros((2, 2), dtype=complex)
        for k in self.kraus:
            if k.shape != (2, 2):
                raise KrausError(f"Kraus operators must be 2x2, got shape {k.shape}")
            total += k.conj().T @ k
        if not np.allclose(total, _I2, atol=MATRIX_TOL, rtol=0.0):
            raise KrausError("Kraus set is not trace preserving")


def identity_channel() -> QubitChannel:
    return QubitChannel((_I2.copy(),))


def ad_channel(p: float) -> QubitChannel:
    """Amplitude damping: K0 = |0><0| + sqrt(1-p)|1><1|, K1 = sqrt(p)|0><1|."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"damping probability must lie in [0, 1], got {p}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return QubitChannel((k0, k1))


def dephasing_channel(p: float) -> QubitChannel:
    """Phase flip with probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"flip probability must lie in [0, 1], got {p}")
    k0 = np.sqrt(1.0 - p) * _I2
    k1 = np.sqrt(p) * np.diag([1.0, -1.0]).astype(complex)
    return QubitChannel((k0, k1))


def apply_channel(channel: QubitChannel, rho: np.ndarray) -> np.ndarray:
    """Sum_i K_i rho K_i^dagger."""
    out = np.zeros_like(rho, dtype=complex)
    for k in channel.kraus:
        out += k @ rho @ k.conj().T
    return out


def choi_of(channel: QubitChannel) -> np.ndarray:
    """Choi state (I (x) E)(|Phi><Phi|) with |Phi> maximally entangled."""
    rho = np.outer(_BELL, _BELL.conj())
    out = np.zeros((4, 4), dtype=complex)
    for k in channel.kraus:
        op = np.kron(_I2, k)
        out += op @ rho @ op.conj().T
    return out


def _check_density(rho: np.ndarray, size: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (size, size):
        raise DomainError(f"expected a {size}x{size} matrix, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=MATRIX_TOL, rtol=0.0):
        raise DomainError("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > MATRIX_TOL:
        raise DomainError(f"trace must be 1, got {np.trace(rho).real}")
    if np.linalg.eigvalsh(rho).min() < -MATRIX_TOL:
        raise DomainError("matrix is not positive semidefinite within tolerance")
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits from the eigenvalue spectrum; tiny eigenvalues count as 0."""
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    lam = lam[lam > EIG_ZERO_TOL]
    return float(-(lam * np.log2(lam)).sum())


def trace_out_a(rho: np.ndarray) -> np.ndarray:
    """Partial trace over the first qubit of a 2-qubit state."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abac->bc", r)


def trace_out_b(rho: np.ndarray) -> np.ndarray:
    """Partial trace over the second qubit of a 2-qubit state."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r)


def ci_rci(choi: np.ndarray) -> tuple[float, float]:
    """Coherent and reverse coherent information of a Choi state, in bits.

    The first tensor factor is the untouched reference, the second the channel
    output: I_C = S(Tr_A rho) - S(rho) and I_RC = S(Tr_B rho) - S(rho).
    """
    rho = _check_density(choi, 4)
    s_joint = von_neumann_entropy(rho)
    ic = von_neumann_entropy(trace_out_a(rho)) - s_joint
    irc = von_neumann_entropy(trace_out_b(rho)) - s_joint
    return ic, irc


def ad_rci_at_u(p: float, u: float) -> float:
    """Reverse coherent information of AD(p) for input excitation u.

    Purifies diag(1-u, u) as sqrt(1-u)|00> + sqrt(u)|11>, damps the second
    qubit, and returns S(rho_A) - S(rho_AB) from explicit eigenvalues.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"input excitation must lie in [0, 1], got {u}")
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(1.0 - u)
    psi[3] = np.sqrt(u)
    rho = np.outer(psi, psi.conj())
    out = np.zeros((4, 4), dtype=complex)
    for k in ad_channel(p).kraus:
        op = np.kron(_I2, k)
        out += op @ rho @ op.conj().T
    return von_neumann_entropy(trace_out_b(out)) - von_neumann_entropy(out)


def check_covariance(v: np.ndarray) -> np.ndarray:
    """Validate a single-mode covariance matrix (vacuum = I/2 convention)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2, 2):
        raise DomainError(f"covariance matrix must be 2x2, got shape {v.shape}")
    if not np.allclose(v, v.T, atol=MATRIX_TOL, rtol=0.0):
        raise DomainError("covariance matrix is not symmetric")
    if np.linalg.eigvalsh(v).min() <= 0.0:
        raise DomainError("covariance matrix is not positive definite")
    if np.linalg.det(v) < 0.25 - MATRIX_TOL:
        raise DomainError("covariance matrix violates the uncertainty bound det V >= 1/4")
    return v


def gaussian_propagate(v: np.ndarray, channels) -> np.ndarray:
    """Push a covariance matrix through a chain of thermal-loss channels.

    Each step maps V -> tau*V + (nbar + |1-tau|/2)*I. An empty chain returns
    the input unchanged.
    """
    out = check_covariance(v).copy()
    eye = np.eye(2)
    for tau, nbar in channels:
        if not 0.0 < tau <= 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
        if nbar < 0.0:
            raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
        out = tau * out + (nbar + 0.5 * abs(1.0 - tau)) * eye
    return out


class OrientedBounds(NamedTuple):
    """One edge's bounds, each with its kind and chosen (sender, receiver)."""

    lower: float
    upper: float
    lower_orientation: tuple[str, str]
    upper_orientation: tuple[str, str]
    lower_kind: BoundKind
    upper_kind: BoundKind


def oriented_edge_bounds(edge: ChannelSpec, node_a: NodeSpec, node_b: NodeSpec, fam: str) -> OrientedBounds:
    """Bounds of one edge in the graph family ``fam``, each side's direction
    chosen by ``bounds.orient``: the per-edge reference for ``apply_split``."""
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
    neighbours: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for edge in graph.edges:
        neighbours[edge.a].add(edge.b)
        neighbours[edge.b].add(edge.a)
    allowed = {tuple(sorted(lam)) for lam in spec.commonalities}
    for node, nbrs in neighbours.items():
        if len(nbrs) != spec.k:
            continue  # boundary node of the finite patch
        lam = tuple(sorted(len(neighbours[other] & nbrs) for other in nbrs))
        if lam not in allowed:
            raise DomainError(f"node {node} has commonality multiset {lam}, outside the superset")
    for user in graph.users:
        if len(neighbours[user]) != spec.k:
            raise DomainError(f"end user {user} is not an interior node")


def verify_theorem2(spec: WrnSpec, edge_value: float, tol: float = 1e-9) -> bool:
    """Check the uniform-value consequence: flooding capacity equals k * c.

    Annotates the generated lattice with the exact uniform value and compares
    the max-flow result against k * c and against the user-isolation cut.
    """
    if not isinstance(spec, WrnSpec):
        raise DomainError("verify_theorem2 needs a WrnSpec; arbitrary graphs are not weakly regular")
    if edge_value <= 0.0 or math.isnan(edge_value):
        raise DomainError(f"edge value must be > 0, got {edge_value}")
    bg = annotate_uniform(generate(spec), edge_value)
    flood = max_flow(bg, "lower").value
    isolation = min_neighbourhood_capacity(bg, "lower")
    expected = spec.k * edge_value
    return abs(flood - expected) <= tol and abs(isolation - expected) <= tol

"""Weakly-regular lattice cells, connectivity constants, and threshold solving.

Two cell types are generated: a triangular lattice (interior degree 6, every
adjacent pair sharing 2 neighbours) and a square lattice with both diagonals
(interior degree 8, sharing 4 along axes and 2 along diagonals). The
connectivity constants delta and omega scale the end-to-end capacity target
down to a per-edge requirement: bulk edges must carry C/delta, user-connected
edges C/omega. Solving bound_function(xi) = target/scale for the physical
parameter xi (edge length, internal loss, or receiver noise) yields the
tolerable-parameter thresholds; running the solve with the lower and the upper
bound function brackets the true threshold.

With every edge at one uniform value c, these lattices satisfy the threshold
conditions outright and the flooding capacity equals k*c exactly (the
user-isolating cut is minimal). The verifiers in ``oracles.py`` check that
consequence numerically, hold the closed-form patch sizes that ``generate``
must reproduce, and check that its patches are weakly regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from . import qkd as qkd_mod
from .bounds import compound, compound_bound
from .channels import (
    FAMILY_AD,
    FAMILY_TL,
    ChannelSpec,
    FibreParams,
    Identity,
    NodeSpec,
    as_damping,
    as_thermal,
    family,
    fibre_transmissivity,
)
from .errors import DomainError, FamilyError, MonotonicityError, NotAttainableError

if TYPE_CHECKING:
    from .network import NetworkGraph

# Bisection tolerances: relative width in xi, relative residual in the bound.
XI_REL_TOL = 1e-9
RESIDUAL_REL_TOL = 1e-6
# Initial search bracket in the parameter's natural units, expanded by
# doubling outward at most this many times.
BRACKET_START = (1e-6, 1e3)
MAX_EXPANSIONS = 60
MONOTONE_SAMPLES = 64

PARAM_EDGE_LENGTH = "edgeLength"
PARAM_INTERNAL_LOSS = "internalLoss"
PARAM_RECEIVER_NOISE = "receiverNoise"

# Bulk edges scale the target by delta, user-connected edges by omega.
SCALE_NAMES = ("delta", "omega")

DIRECTION_MAX = "maxTolerable"
DIRECTION_MIN = "minRequired"

CELL_TRIANGULAR = "triangular6"
CELL_MANHATTAN = "manhattan8"

# Per cell type: degree, commonality multiset superset, geometric density factor.
_CELLS = {
    CELL_TRIANGULAR: (6, ((2, 2, 2, 2, 2, 2),), 2.0 / math.sqrt(3.0)),
    CELL_MANHATTAN: (8, ((2, 2, 2, 2, 4, 4, 4, 4),), 2.0),
}


@dataclass(frozen=True)
class WrnSpec:
    """A uniform weakly-regular lattice patch with one device template.

    ``radius`` counts concentric cell layers around the centre; the generated
    patch spans two node rings per cell layer. The recv/send template applies
    to every node, end users included; leave both Identity for ideal devices.
    """

    cell_type: str
    radius: int
    edge_length_km: float
    family: str
    recv: ChannelSpec = Identity()
    send: ChannelSpec = Identity()
    gamma: float = 0.02
    nbar_B: float = 0.002
    k: int = field(init=False)
    commonalities: tuple = field(init=False)

    def __post_init__(self):
        if self.cell_type not in _CELLS:
            raise DomainError(f"cell type must be one of {sorted(_CELLS)}, got {self.cell_type!r}")
        if self.radius < 2:
            raise DomainError(f"radius must be >= 2 so the users sit deep inside, got {self.radius}")
        # Negated comparisons so that NaN is rejected too.
        if not self.edge_length_km > 0.0:
            raise DomainError(f"edge_length_km must be > 0 km, got {self.edge_length_km}")
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be > 0 per km, got {self.gamma}")
        if not self.nbar_B >= 0.0:
            raise DomainError(f"nbar_B must be >= 0, got {self.nbar_B}")
        if self.family not in (FAMILY_AD, FAMILY_TL):
            raise DomainError(f"family must be 'ad' or 'tl', got {self.family!r}")
        for spec in (self.recv, self.send):
            fam = family(spec)
            if fam is not None and fam != self.family:
                raise FamilyError(f"internal template {spec!r} does not match family {self.family!r}")
        k, lambdas, _ = _CELLS[self.cell_type]
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "commonalities", lambdas)

    @property
    def xi_geom(self) -> float:
        return _CELLS[self.cell_type][2]


def delta(k: int, commonalities) -> int:
    """Bulk connectivity constant: min over multisets of sum(k - entry - 1)."""
    lambdas = tuple(tuple(l) for l in commonalities)
    if not lambdas:
        raise DomainError("the commonality superset must not be empty")
    for lam in lambdas:
        if len(lam) != k:
            raise DomainError(f"each commonality multiset needs exactly k={k} entries, got {lam}")
        for entry in lam:
            if not 0 <= entry <= k - 1:
                raise DomainError(f"commonality entries must lie in [0, {k - 1}], got {entry}")
    return min(sum(k - entry - 1 for entry in lam) for lam in lambdas)


def omega(k: int, delta_value: int) -> Fraction:
    """User-edge connectivity constant delta*(k-1)/(delta-k+1), exact."""
    if delta_value <= k - 1:
        raise DomainError(f"omega needs delta > k-1, got delta={delta_value}, k={k}")
    return Fraction(delta_value * (k - 1), delta_value - (k - 1))


def _triangular_coords(rings: int):
    coords = []
    for q in range(-rings, rings + 1):
        for r in range(-rings, rings + 1):
            if (abs(q) + abs(r) + abs(q + r)) // 2 <= rings:
                coords.append((q, r))
    return coords


_TRI_HALF_DIRS = ((1, 0), (0, 1), (-1, 1))
_KING_HALF_DIRS = ((1, 0), (0, 1), (1, 1), (1, -1))


def _node_id(coord: tuple[int, int]) -> str:
    return f"n{coord[0]}_{coord[1]}"


def generate(spec: WrnSpec) -> NetworkGraph:
    """Build the lattice patch as a NetworkGraph with uniform fibre edges.

    End users are the two lattice nodes at offsets (-2, 0) and (2, 0) from the
    centre: four hops apart, non-adjacent, and at least two node rings away
    from the boundary for every allowed radius.
    """
    # Imported here: the threshold solver, the rest of this module, never
    # builds a graph, so ``threshold`` and ``sweep`` do not load ``network``.
    from .network import Edge, NetworkGraph

    rings = 2 * spec.radius
    if spec.cell_type == CELL_TRIANGULAR:
        coords = _triangular_coords(rings)
        half_dirs = _TRI_HALF_DIRS
    else:
        coords = [(x, y) for x in range(-rings, rings + 1) for y in range(-rings, rings + 1)]
        half_dirs = _KING_HALF_DIRS
    member = set(coords)
    users = ((-2, 0), (2, 0))
    fibre = FibreParams(length_km=spec.edge_length_km, gamma=spec.gamma, nbar_B=spec.nbar_B)
    nodes = {}
    for coord in coords:
        role = "user" if coord in users else "repeater"
        node_id = _node_id(coord)
        nodes[node_id] = NodeSpec(node_id, recv=spec.recv, send=spec.send, role=role)
    edges = []
    for coord in coords:
        for dx, dy in half_dirs:
            other = (coord[0] + dx, coord[1] + dy)
            if other in member:
                edges.append(Edge(_node_id(coord), _node_id(other), fibre=fibre))
    return NetworkGraph(
        nodes=nodes,
        edges=tuple(edges),
        users=(_node_id(users[0]), _node_id(users[1])),
        family=spec.family,
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Bracketed threshold for one physical parameter at one scale."""

    param: str
    scale_name: str  # "delta" | "omega"
    scale: float
    target: float
    direction: str | None  # None only when neither side solves
    from_lower_fn: float  # xi* solved on the achievable (lower) bound; nan if unattainable
    from_upper_fn: float  # xi* solved on the upper bound; nan if unattainable
    unattainable: NotAttainableError | None = field(default=None, compare=False, repr=False)

    @property
    def bracket(self) -> tuple[float, float]:
        lo, hi = sorted((self.from_lower_fn, self.from_upper_fn))
        return (lo, hi)

    def as_json(self) -> dict:
        x_name = self.scale_name
        return {
            "param": self.param,
            "x": x_name,
            "bracket": list(self.bracket),
            "direction": self.direction,
            "target": self.target,
        }


@dataclass(frozen=True)
class DensityResult:
    """Least nodes per km^2 compatible with a maximum link length."""

    d_max: float
    xi_geom: float
    rho_min: float


def min_nodal_density(d_max: float, cell_type: str) -> DensityResult:
    if cell_type not in _CELLS:
        raise DomainError(f"cell type must be one of {sorted(_CELLS)}, got {cell_type!r}")
    if d_max <= 0.0 or math.isnan(d_max):
        raise DomainError(f"maximum link length must be > 0 km, got {d_max}")
    xi_geom = _CELLS[cell_type][2]
    return DensityResult(d_max=d_max, xi_geom=xi_geom, rho_min=xi_geom / (d_max * d_max))


def _scan_direction(fn: Callable[[float], float], lo: float, hi: float, goal: float) -> str:
    """Classify fn as non-increasing or non-decreasing on [lo, hi] from samples.

    A function constant on the bracket has no direction: below ``goal`` it
    cannot reach it (NotAttainableError), at or above it is a MonotonicityError.
    """
    if lo <= 0.0:
        raise DomainError(f"search bracket must be positive, got [{lo}, {hi}]")
    ratio = (hi / lo) ** (1.0 / (MONOTONE_SAMPLES - 1))
    xs = [lo * ratio**i for i in range(MONOTONE_SAMPLES - 1)] + [hi]
    values = [fn(x) for x in xs]
    rises = any(b > a for a, b in zip(values, values[1:]))
    falls = any(b < a for a, b in zip(values, values[1:]))
    if rises and falls:
        raise MonotonicityError("bound function is not monotone on the search bracket")
    if not rises and not falls:
        if values[0] < goal:
            raise NotAttainableError(
                f"bound function is constant at {values[0]:g} on the search bracket, "
                f"below the per-edge target {goal:g}"
            )
        raise MonotonicityError("bound function is constant on the search bracket")
    return DIRECTION_MIN if rises else DIRECTION_MAX


def _solve(
    fn: Callable[[float], float],
    target: float,
    scale: float,
    bracket: tuple[float, float],
) -> tuple[float, str]:
    if target <= 0.0 or math.isnan(target):
        raise DomainError(f"capacity target must be > 0, got {target}")
    if scale <= 0.0:
        raise DomainError(f"scale must be > 0, got {scale}")
    goal = target / float(scale)
    lo, hi = bracket
    found = _scan_direction(fn, lo, hi, goal)
    sign = -1.0 if found == DIRECTION_MAX else 1.0

    def residual(x: float) -> float:
        return sign * (fn(x) - goal)

    r_lo, r_hi = residual(lo), residual(hi)
    # Expanding past the bound function's own domain (fibre transmissivity
    # saturating at 1.0, say) means no representable parameter certifies
    # the target, which is a solvability verdict and not a caller mistake.
    try:
        expansions = 0
        while r_lo > 0.0 and expansions < MAX_EXPANSIONS:
            lo /= 2.0
            r_lo = residual(lo)
            expansions += 1
        expansions = 0
        while r_hi < 0.0 and expansions < MAX_EXPANSIONS:
            hi *= 2.0
            r_hi = residual(hi)
            expansions += 1
    except DomainError as exc:
        raise NotAttainableError(
            f"per-edge target {goal:g} is out of reach: {exc}"
        ) from exc
    if r_lo > 0.0 or r_hi < 0.0:
        raise NotAttainableError(
            f"no parameter value in ({lo:g}, {hi:g}) reaches the per-edge target {goal:g}"
        )
    if r_lo == 0.0:
        return lo, found
    if r_hi == 0.0:
        return hi, found
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid == 0.0:
            lo = hi = mid
            break
        if r_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= XI_REL_TOL * max(abs(lo), abs(hi)):
            break
    # The width stop can come before the residual test passes where the
    # function is steep; keep halving while there is room between lo and hi.
    xi = 0.5 * (lo + hi)
    achieved = fn(xi)
    while abs(achieved - goal) > RESIDUAL_REL_TOL * goal and lo < xi < hi:
        if sign * (achieved - goal) < 0.0:
            lo = xi
        else:
            hi = xi
        xi = 0.5 * (lo + hi)
        achieved = fn(xi)
    if abs(achieved - goal) > RESIDUAL_REL_TOL * goal:
        raise MonotonicityError(
            f"bisection landed at bound value {achieved:g}, target {goal:g}; "
            "the function may step discontinuously"
        )
    return xi, found


def solve_threshold(
    bound_fn: Callable[[float], float],
    target: float,
    scale: float,
    bracket: tuple[float, float] = BRACKET_START,
) -> float:
    """Parameter value where scale * bound_fn(xi) crosses the capacity target.

    ``bound_fn`` must be monotone on the bracket (verified by sampling).
    Bisection runs to relative 1e-9 in xi, then on while there is room, until
    the result reproduces target/scale to relative 1e-6. Raises
    NotAttainableError when the target lies outside the function's range even
    after bracket expansion, and MonotonicityError for non-monotone input.
    """
    xi, _ = _solve(bound_fn, target, scale, bracket)
    return xi


def _compound_at(spec: WrnSpec, param: str, qkd_setup: qkd_mod.QkdSetup | None):
    """(xi -> reduced edge compound in family-native numbers, start bracket)."""

    def eta(d: float) -> float:
        return fibre_transmissivity(spec.gamma, d)

    if param == PARAM_EDGE_LENGTH:
        if spec.family == FAMILY_AD:
            if qkd_setup is not None:
                raise FamilyError("QKD receiver models apply to thermal-loss lattices only")
            p_send, p_recv = as_damping(spec.send), as_damping(spec.recv)
            return (lambda d: compound(FAMILY_AD, p_send, 1.0 - eta(d), p_recv)), BRACKET_START
        if qkd_setup is not None:
            def qkd_compound(d: float):
                eta_d = eta(d)
                recv = (qkd_setup.tau_eff, qkd_mod.receiver_noise(qkd_setup, eta_d))
                return compound(FAMILY_TL, (1.0, 0.0), (eta_d, spec.nbar_B), recv)

            return qkd_compound, BRACKET_START
        send_t, recv_t = as_thermal(spec.send), as_thermal(spec.recv)
        return (lambda d: compound(FAMILY_TL, send_t, (eta(d), spec.nbar_B), recv_t)), BRACKET_START

    if param == PARAM_INTERNAL_LOSS:
        if spec.family != FAMILY_AD:
            raise FamilyError("internal loss is the damping-family parameter")
        if qkd_setup is not None:
            raise FamilyError("QKD receiver models apply to thermal-loss lattices only")
        # The swept internal loss stands in for both device templates.
        p_edge = 1.0 - eta(spec.edge_length_km)
        return (lambda p: compound(FAMILY_AD, p, p_edge, 0.0)), (BRACKET_START[0], 1.0 - 1e-9)

    if param == PARAM_RECEIVER_NOISE:
        if spec.family != FAMILY_TL:
            raise FamilyError("receiver noise is the thermal-family parameter")
        tau_r, send_t = as_thermal(spec.recv)[0], as_thermal(spec.send)
        fibre = (eta(spec.edge_length_km), spec.nbar_B)
        return (lambda n: compound(FAMILY_TL, send_t, fibre, (tau_r, n))), BRACKET_START

    raise DomainError(
        f"param must be one of {PARAM_EDGE_LENGTH!r}, {PARAM_INTERNAL_LOSS!r}, "
        f"{PARAM_RECEIVER_NOISE!r}, got {param!r}"
    )


def bound_functions(
    spec: WrnSpec,
    param: str,
    qkd_setup: qkd_mod.QkdSetup | None = None,
) -> tuple[Callable[[float], float], Callable[[float], float], tuple[float, float]]:
    """(lower fn, upper fn, start bracket) for one tunable parameter.

    The remaining parameters are frozen from the spec. With a QKD setup the
    receiver template becomes ThermalLoss(tau_eff, nbar_r(eta(d))) and the
    sender is ideal; that combination only applies to thermal-loss lattices
    varied over edge length. Each function evaluates its own side only.
    """
    at, bracket = _compound_at(spec, param, qkd_setup)
    fam = spec.family
    return (
        lambda x: compound_bound(fam, at(x), "lower")[0],
        lambda x: compound_bound(fam, at(x), "upper")[0],
        bracket,
    )


def connectivity(spec: WrnSpec) -> tuple[int, Fraction]:
    d = delta(spec.k, spec.commonalities)
    return d, omega(spec.k, d)


def solve_at_scale(
    spec: WrnSpec, target: float, param: str, scale_name: str, qkd_setup: qkd_mod.QkdSetup | None = None
) -> ThresholdResult:
    """Thresholds from the lower and the upper bound function at one scale.

    ``scale_name`` is "delta" (bulk edges) or "omega" (user edges). A side
    whose per-edge target is out of reach is nan, and the first such
    NotAttainableError is kept in ``unattainable``.
    """
    scales = dict(zip(SCALE_NAMES, connectivity(spec)))
    if scale_name not in scales:
        raise DomainError(f"scale must be one of {SCALE_NAMES}, got {scale_name!r}")
    scale = float(scales[scale_name])
    lower_fn, upper_fn, bracket = bound_functions(spec, param, qkd_setup)
    solved, unattainable = [], None
    for fn in (lower_fn, upper_fn):
        try:
            solved.append(_solve(fn, target, scale, bracket))
        except NotAttainableError as exc:
            solved.append((math.nan, None))
            unattainable = unattainable or exc
    (xi_lo, direction), (xi_up, direction_up) = solved
    if None not in (direction, direction_up) and direction != direction_up:
        raise MonotonicityError("lower and upper bound functions disagree in direction")
    return ThresholdResult(
        param=param,
        scale_name=scale_name,
        scale=scale,
        target=target,
        direction=direction or direction_up,
        from_lower_fn=xi_lo,
        from_upper_fn=xi_up,
        unattainable=unattainable,
    )


def threshold_report(
    spec: WrnSpec,
    target: float,
    param: str,
    qkd_setup: qkd_mod.QkdSetup | None = None,
) -> tuple[ThresholdResult, ThresholdResult]:
    """Bracketed thresholds for bulk edges (scale delta) and user edges (scale omega).

    Raises NotAttainableError when either bound function misses the target.
    """
    results = []
    for scale_name in SCALE_NAMES:
        results.append(solve_at_scale(spec, target, param, scale_name, qkd_setup))
        if results[-1].unattainable is not None:
            raise results[-1].unattainable
    return results[0], results[1]

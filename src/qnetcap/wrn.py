"""Weakly-regular lattice cells, connectivity constants, and threshold solving.

Two cell types are generated: a triangular lattice (interior degree 6, every
adjacent pair sharing 2 neighbours) and a square lattice with both diagonals
(interior degree 8, sharing 4 along axes and 2 along diagonals). The
connectivity constants delta and omega scale the end-to-end capacity target
down to a per-edge requirement: bulk edges must carry C/delta, user-connected
edges C/omega. Solving bound_function(xi) = target/scale for the physical
parameter xi (edge length, internal loss, or receiver noise) yields the
tolerable-parameter thresholds; running the solve with the lower and the upper
bound function brackets the true threshold. ``thresholds`` scans the pair of
bound functions once, each sample reducing its compound once for both sides,
takes each side's direction from it and then bisects each side for every
requested (target, scale) goal.

With every edge at one uniform value c, these lattices satisfy the threshold
conditions outright and the flooding capacity equals k*c exactly (the
user-isolating cut is minimal). The verifiers in ``oracles.py`` check that
consequence numerically, hold the closed-form patch sizes that ``generate``
must reproduce, and check that its patches are weakly regular.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .bounds import ad_rci, ad_squashed, compound, tl_bounds
from .channels import (
    FAMILY_AD,
    FAMILY_TL,
    ChannelSpec,
    FibreParams,
    Identity,
    as_damping,
    as_thermal,
    family,
    fibre_transmissivity,
)
from .errors import DomainError, FamilyError, MonotonicityError, NotAttainableError, checked

if TYPE_CHECKING:
    from . import qkd as qkd_mod
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


@checked
class WrnSpec(NamedTuple):
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

    def _check(self):
        if self.cell_type not in _CELLS:
            raise DomainError(f"cell type must be one of {sorted(_CELLS)}, got {self.cell_type!r}")
        if not isinstance(self.radius, int):
            raise DomainError(f"radius must be an integer, got {self.radius!r}")
        if self.radius < 2:
            raise DomainError(f"radius must be >= 2 so the users sit deep inside, got {self.radius}")
        # Negated comparisons so that NaN is rejected too.
        if not self.edge_length_km > 0.0:
            raise DomainError(f"edge_length_km must be > 0 km, got {self.edge_length_km}")
        if not 0.0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and > 0 per km, got {self.gamma}")
        if not self.nbar_B >= 0.0:
            raise DomainError(f"nbar_B must be >= 0, got {self.nbar_B}")
        if self.family not in (FAMILY_AD, FAMILY_TL):
            raise DomainError(f"family must be 'ad' or 'tl', got {self.family!r}")
        for spec in (self.recv, self.send):
            fam = family(spec)
            if fam is not None and fam != self.family:
                raise FamilyError(f"internal template {spec!r} does not match family {self.family!r}")

    # The cell type's degree, commonality multiset superset and geometric density factor.
    k = property(lambda self: _CELLS[self.cell_type][0])
    commonalities = property(lambda self: _CELLS[self.cell_type][1])
    xi_geom = property(lambda self: _CELLS[self.cell_type][2])


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


def omega(k: int, delta_value: int) -> tuple[int, int]:
    """User-edge connectivity constant delta*(k-1)/(delta-k+1), as a reduced (numerator, denominator)."""
    if delta_value <= k - 1:
        raise DomainError(f"omega needs delta > k-1, got delta={delta_value}, k={k}")
    num, den = delta_value * (k - 1), delta_value - (k - 1)
    g = math.gcd(num, den)
    return num // g, den // g


def _triangular_coords(rings: int):
    coords = []
    for q in range(-rings, rings + 1):
        for r in range(-rings, rings + 1):
            if (abs(q) + abs(r) + abs(q + r)) // 2 <= rings:
                coords.append((q, r))
    return coords


_TRI_HALF_DIRS = ((1, 0), (0, 1), (-1, 1))
_KING_HALF_DIRS = ((1, 0), (0, 1), (1, 1), (1, -1))


# The largest radius ``generate`` builds: manhattan8 r=100 is 640,800 edges, and
# ``generate`` peaks at 78 MiB and ``analyze`` at 198 MiB on it (README).
MAX_GENERATE_RADIUS = 100


def generate(spec: WrnSpec) -> NetworkGraph:
    """Build the lattice patch as a NetworkGraph whose edges share one fibre class.

    Node (x, y) is named ``n{x}_{y}``. End users are the two lattice nodes at
    offsets (-2, 0) and (2, 0) from the centre: four hops apart, non-adjacent,
    and at least two node rings away from the boundary for every allowed radius.
    DomainError for a radius above ``MAX_GENERATE_RADIUS``.
    """
    if spec.radius > MAX_GENERATE_RADIUS:
        raise DomainError(f"generate builds a radius of at most {MAX_GENERATE_RADIUS}, got {spec.radius}")
    # Imported here: the threshold solver, the rest of this module, never
    # builds a graph, so ``threshold`` and ``sweep`` do not load ``network``.
    from .network import NetworkGraph

    rings = 2 * spec.radius
    if spec.cell_type == CELL_TRIANGULAR:
        coords = _triangular_coords(rings)
        half_dirs = _TRI_HALF_DIRS
    else:
        coords = [(x, y) for x in range(-rings, rings + 1) for y in range(-rings, rings + 1)]
        half_dirs = _KING_HALF_DIRS
    number = {coord: i for i, coord in enumerate(coords)}
    a, b = [], []
    for (x, y), u in number.items():
        for dx, dy in half_dirs:
            v = number.get((x + dx, y + dy))
            if v is not None:
                a.append(u)
                b.append(v)
    users = ((-2, 0), (2, 0))
    n = len(coords)
    return NetworkGraph(
        tuple(f"n{x}_{y}" for x, y in coords), (spec.recv,) * n, (spec.send,) * n,
        tuple("user" if coord in users else "repeater" for coord in coords),
        tuple(a), tuple(b), (0,) * len(a),
        (FibreParams(length_km=spec.edge_length_km, gamma=spec.gamma, nbar_B=spec.nbar_B),),
        users=tuple(f"n{x}_{y}" for x, y in users),
        family=spec.family,
    )


class ThresholdResult(NamedTuple):
    """Bracketed threshold for one physical parameter at one scale; an unreached side is nan."""

    param: str
    scale_name: str  # "delta" | "omega"
    scale: float
    target: float
    direction: str | None  # None only when neither side solves
    from_lower_fn: float  # xi* solved on the achievable (lower) bound; nan if unattainable
    from_upper_fn: float  # xi* solved on the upper bound; nan if unattainable
    unattainable: str | None = None  # why the first unreached side is nan; None if both solve

    @property
    def bracket(self) -> tuple[float, float]:
        lo, hi = sorted((self.from_lower_fn, self.from_upper_fn))
        return (lo, hi)

    def as_json(self) -> dict:
        return {
            "param": self.param,
            "x": self.scale_name,
            "bracket": list(self.bracket),
            "direction": self.direction,
            "target": self.target,
        }


class DensityResult(NamedTuple):
    """Least nodes per km^2 compatible with a maximum link length."""

    d_max: float
    xi_geom: float
    rho_min: float


def min_nodal_density(d_max: float, cell_type: str) -> DensityResult:
    if cell_type not in _CELLS:
        raise DomainError(f"cell type must be one of {sorted(_CELLS)}, got {cell_type!r}")
    if not d_max > 0.0:
        raise DomainError(f"maximum link length must be > 0 km, got {d_max}")
    xi_geom = _CELLS[cell_type][2]
    return DensityResult(d_max=d_max, xi_geom=xi_geom, rho_min=xi_geom / (d_max * d_max))


def _samples(bracket: tuple[float, float]) -> list[float]:
    """MONOTONE_SAMPLES geometric samples of the bracket, from exactly lo to exactly hi."""
    lo, hi = bracket
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(f"search bracket must satisfy 0 < lo < hi < inf, got [{lo}, {hi}]")
    ratio = (hi / lo) ** (1.0 / (MONOTONE_SAMPLES - 1))
    return [lo * ratio**i for i in range(MONOTONE_SAMPLES - 1)] + [hi]


def _scan(fn: Callable[[float], float], bracket: tuple[float, float]) -> tuple[str | None, Sequence[float]]:
    """``_verdict`` of fn at the ``_samples`` of the bracket."""
    return _verdict([fn(x) for x in _samples(bracket)])


def _verdict(values: Sequence[float]) -> tuple[str | None, Sequence[float]]:
    """(direction, values) of one function's samples; the direction is None
    for a constant. Nothing here depends on a goal, so one scan serves every
    goal solved on the same function.
    """
    rises = any(b > a for a, b in zip(values, values[1:]))
    falls = any(b < a for a, b in zip(values, values[1:]))
    if rises and falls:
        raise MonotonicityError("bound function is not monotone on the search bracket")
    return (DIRECTION_MIN if rises else DIRECTION_MAX if falls else None), values


def _solve(fn: Callable[[float], float], target: float, scale: float, bracket: tuple[float, float],
           scan: tuple[str | None, Sequence[float]]) -> float:
    """xi where fn(xi) meets target/scale, given the ``_scan`` of fn on ``bracket``,
    whose first and last values are fn(lo) and fn(hi)."""
    if not target > 0.0:
        raise DomainError(f"capacity target must be > 0, got {target}")
    if not scale > 0.0:
        raise DomainError(f"scale must be > 0, got {scale}")
    goal = target / float(scale)
    if goal == 0.0:  # a goal of 0 is met wherever the bound is 0, as at a dark fibre
        raise DomainError(f"per-edge target {target}/{scale} underflows to 0")
    direction, values = scan
    first = values[0]
    if direction is None:  # a constant either misses the goal or never crosses it
        if first < goal:
            raise NotAttainableError(
                f"bound function is constant at {first:g} on the search bracket, "
                f"below the per-edge target {goal:g}"
            )
        raise MonotonicityError("bound function is constant on the search bracket")
    sign = -1.0 if direction == DIRECTION_MAX else 1.0

    def residual(x: float) -> float:
        return sign * (fn(x) - goal)

    lo, hi = bracket
    r_lo, r_hi = sign * (first - goal), sign * (values[-1] - goal)
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
        return lo
    if r_hi == 0.0:
        return hi
    # Bisect to relative width XI_REL_TOL, at most 200 steps. That can come
    # before the residual test passes where the function is steep, so then
    # keep halving while the test fails and there is room between lo and hi.
    steps, narrow = 0, False
    while True:
        xi = 0.5 * (lo + hi)
        achieved = fn(xi)
        r = sign * (achieved - goal)
        missed = abs(achieved - goal) > RESIDUAL_REL_TOL * goal
        if r == 0.0 or narrow and not (missed and lo < xi < hi):
            break
        if r < 0.0:
            lo = xi
        else:
            hi = xi
        steps += 1
        narrow = narrow or steps == 200 or hi - lo <= XI_REL_TOL * max(abs(lo), abs(hi))
    if missed:
        raise MonotonicityError(
            f"bisection landed at bound value {achieved:g}, target {goal:g}; "
            "the function may step discontinuously"
        )
    return xi


def solve_threshold(
    bound_fn: Callable[[float], float],
    target: float,
    scale: float,
    bracket: tuple[float, float] = BRACKET_START,
) -> float:
    """Parameter value where scale * bound_fn(xi) crosses the capacity target.

    ``bound_fn`` must be monotone on the bracket: one scan of samples gives
    its direction. Bisection runs to relative 1e-9 in xi, then on while there
    is room, until the result reproduces target/scale to relative 1e-6. Raises
    DomainError unless 0 < lo < hi < inf, NotAttainableError when the target
    lies outside the function's range even after bracket expansion, and
    MonotonicityError for non-monotone input.
    """
    return _solve(bound_fn, target, scale, bracket, _scan(bound_fn, bracket))


def _compound_at(spec: WrnSpec, param: str, qkd_setup: qkd_mod.QkdSetup | None):
    """(xi -> reduced edge compound in family-native numbers, bracket)."""
    families = {PARAM_EDGE_LENGTH: spec.family, PARAM_INTERNAL_LOSS: FAMILY_AD,
                PARAM_RECEIVER_NOISE: FAMILY_TL}
    if param not in families:
        raise DomainError(f"param must be one of {sorted(families)}, got {param!r}")
    if families[param] != spec.family:
        raise FamilyError(f"{param} is a parameter of {families[param]!r}-family lattices")
    if qkd_setup is not None and (param, spec.family) != (PARAM_EDGE_LENGTH, FAMILY_TL):
        # The QKD model sets the receiver noise, so it has no place in a receiverNoise solve.
        raise FamilyError("qkd_setup applies to edgeLength solves on thermal-loss lattices only")

    def eta(d: float) -> float:
        return fibre_transmissivity(spec.gamma, d)

    if param == PARAM_INTERNAL_LOSS:
        # The swept internal loss p stands in for both device templates.
        eta_edge = eta(spec.edge_length_km)
        return (lambda p: compound(FAMILY_AD, 1.0 - p, eta_edge, 1.0)), (BRACKET_START[0], 1.0 - 1e-9)
    if param == PARAM_RECEIVER_NOISE:
        tau_r, send_t = as_thermal(spec.recv)[0], as_thermal(spec.send)
        fibre = (eta(spec.edge_length_km), spec.nbar_B)
        return (lambda n: compound(FAMILY_TL, send_t, fibre, (tau_r, n))), BRACKET_START
    if spec.family == FAMILY_AD:
        eta_send, eta_recv = as_damping(spec.send), as_damping(spec.recv)
        return (lambda d: compound(FAMILY_AD, eta_send, eta(d), eta_recv)), BRACKET_START
    if qkd_setup is not None:
        from .qkd import receiver_noise  # only a QKD solve loads the receiver models
        def qkd_compound(d: float):
            eta_d = eta(d)
            recv = (qkd_setup.tau_eff, receiver_noise(qkd_setup, eta_d))
            return compound(FAMILY_TL, (1.0, 0.0), (eta_d, spec.nbar_B), recv)

        return qkd_compound, BRACKET_START
    send_t, recv_t = as_thermal(spec.send), as_thermal(spec.recv)
    return (lambda d: compound(FAMILY_TL, send_t, (eta(d), spec.nbar_B), recv_t)), BRACKET_START


def bound_functions(spec: WrnSpec, param: str, qkd_setup: qkd_mod.QkdSetup | None = None):
    """(lower fn, upper fn, start bracket, both fn) for one tunable parameter.

    The remaining parameters are frozen from the spec. With a QKD setup the
    receiver template becomes ThermalLoss(tau_eff, nbar_r(eta(d))) and the
    sender is ideal; that combination only applies to thermal-loss lattices
    varied over edge length. The family picks each side's bound here, once.
    The lower and upper functions evaluate their own side only; ``both``
    reduces the compound once and returns (lower, upper).
    """
    at, bracket = _compound_at(spec, param, qkd_setup)
    if spec.family == FAMILY_AD:
        def both(x: float) -> tuple[float, float]:
            eta = at(x)
            return ad_rci(eta), ad_squashed(eta)

        return (lambda x: ad_rci(at(x))), (lambda x: ad_squashed(at(x))), bracket, both

    def both(x: float) -> tuple[float, float]:
        lower, _, upper, _ = tl_bounds(*at(x))
        return lower, upper

    return (lambda x: tl_bounds(*at(x))[0]), (lambda x: tl_bounds(*at(x))[2]), bracket, both


def connectivity(spec: WrnSpec) -> tuple[int, tuple[int, int]]:
    d = delta(spec.k, spec.commonalities)
    return d, omega(spec.k, d)


def thresholds(spec: WrnSpec, cases, param: str,
               qkd_setup: qkd_mod.QkdSetup | None = None) -> list[ThresholdResult]:
    """Thresholds from the lower and the upper bound function, one per case.

    Each case is a (target, scale name) pair; the scale name is "delta" (bulk
    edges) or "omega" (user edges). One scan evaluates both bound functions at
    each sample, and each is then solved for every case. A side whose
    per-edge target is out of reach is nan, and ``unattainable`` holds the
    reason of the first such side.
    """
    d, (num, den) = connectivity(spec)
    scales = dict(zip(SCALE_NAMES, (float(d), num / den)))
    lower_fn, upper_fn, bracket, both = bound_functions(spec, param, qkd_setup)
    # The verdicts run on the lower side first, as if each side had its own scan.
    scans = [_verdict(values) for values in zip(*map(both, _samples(bracket)))]
    sides = list(zip((lower_fn, upper_fn), scans))
    results = []
    for target, scale_name in cases:
        if scale_name not in scales:
            raise DomainError(f"scale must be one of {SCALE_NAMES}, got {scale_name!r}")
        scale = scales[scale_name]
        solved, unattainable = [], None
        for fn, scan in sides:
            try:
                solved.append((_solve(fn, target, scale, bracket, scan), scan[0]))
            except NotAttainableError as exc:
                solved.append((math.nan, None))
                unattainable = unattainable or str(exc)
        (xi_lo, direction), (xi_up, direction_up) = solved
        if None not in (direction, direction_up) and direction != direction_up:
            raise MonotonicityError("lower and upper bound functions disagree in direction")
        results.append(ThresholdResult(
            param=param, scale_name=scale_name, scale=scale, target=target,
            direction=direction or direction_up, from_lower_fn=xi_lo, from_upper_fn=xi_up,
            unattainable=unattainable,
        ))
    return results


def threshold_report(
    spec: WrnSpec,
    target: float,
    param: str,
    qkd_setup: qkd_mod.QkdSetup | None = None,
) -> tuple[ThresholdResult, ThresholdResult]:
    """Bracketed thresholds for bulk edges (scale delta) and user edges (scale omega).

    Raises NotAttainableError, with the first ``unattainable`` reason, when
    either bound function misses the target.
    """
    bulk, user = thresholds(spec, [(target, name) for name in SCALE_NAMES], param, qkd_setup)
    for result in (bulk, user):
        if result.unattainable is not None:
            raise NotAttainableError(result.unattainable)
    return bulk, user

"""Single-edge capacity bound functions and per-edge orientation optimization.

One function per bound, in the numbers the compound reduction produces:
``ad_rci(eta)`` (coherent information) and ``ad_squashed(eta)`` (squashed
entanglement) for amplitude damping of survival probability eta = 1 - p;
``tl_bounds(eta, nbar)`` for both sides of a thermal-loss channel (reverse
coherent information and relative entropy of entanglement, with their kinds);
and ``plob_pure_loss(eta)``, -log2(1-eta). Each is written with ``log1p`` so
that it keeps its relative precision as eta -> 0.

``tl_bounds`` holds the only thermal case analysis. A compound that transmits
nothing (a dark fibre, or a product that underflows to 0) is bounded 0 on both
sides, of kind ``DARK_FIBRE``, as -log2(1-eta) -> 0; pure loss is distillable,
so both sides are -log2(1-eta); otherwise one rate serves both sides.

``compound``, the package's one compound reduction, turns the node-split chain
send -> edge -> recv into one channel. One scan sample of the threshold solver
reduces one compound and evaluates both sides of it; a bisection step evaluates
one side. An undirected edge can be used in either direction, and with
asymmetric device noise the two give different compounds: ``direction_bounds``
bounds one direction, and ``orient`` picks, independently for the lower and the
upper bound, the more favourable one; ``network.apply_split`` goes through both.
"""

from __future__ import annotations

import enum
import math

from .channels import FAMILY_AD, FAMILY_TL, as_damping, as_thermal
from .errors import DomainError, FamilyError

BOUND_ORDER_TOL = 1e-12
# Tiny negative compound noise from rounding is clamped; anything lower is a bug.
NBAR_CLAMP_TOL = 1e-12
_LN2 = math.log(2.0)


class BoundKind(enum.Enum):
    RCI_LOWER = "rci-lower"
    SQUASHED_UPPER = "squashed-upper"
    REE_UPPER = "ree-upper"
    PLOB_EXACT = "plob-exact"
    DARK_FIBRE = "dark-fibre"  # a thermal compound of transmissivity 0: exactly 0


def h2(u: float) -> float:
    """Binary entropy -u log2 u - (1-u) log2(1-u), in bits."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {u}")
    if u == 0.0 or u == 1.0:
        return 0.0
    return -u * math.log2(u) - (1.0 - u) * math.log2(1.0 - u)


def bosonic_h(x: float) -> float:
    """Thermal-state entropy function (x+1)log2(x+1) - x log2 x, in bits.

    Evaluated as (ln(1+x) + x*ln(1 + 1/x)) / ln 2 with ``log1p`` for ln(1+x),
    so that neither large x (cancellation) nor small x (rounding 1 + x) loses
    precision; below x = 1, where 1/x can overflow, ln(1 + 1/x) = ln(1+x) - ln x.
    """
    if not x >= 0.0:
        raise DomainError(f"mean photon number must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    t = math.log1p(1.0 / x) if x >= 1.0 else math.log1p(x) - math.log(x)
    return (math.log1p(x) + x * t) / math.log(2.0)


def ad_rci(eta: float) -> float:
    """Best coherent-information rate of amplitude damping with survival probability eta = 1 - p.

    Maximizes f(u) = H2(u) - H2(q), q = pu, over the input excitation u. With
    r = eta*u/(1-u), f ln 2 = eta*u*ln((1-u)/u) + q*ln(1-eta) + (1-q)*ln(1+r)
    and f' ln 2 = eta*(ln(1-q) - ln u) + p*ln(1-eta) - ln(1+r), sums of
    O(eta) terms. f is strictly concave, f'' ln 2 = -eta/(u(1-u)(1-q)), so
    Newton's method finds the root of f'; the sign of f' keeps a bracket
    around it, and a step that leaves the bracket is replaced by bisection.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"survival probability must lie in [0, 1], got {eta}")
    if eta in (0.0, 1.0):
        return eta
    p, log_p = 1.0 - eta, math.log1p(-eta)
    lo, hi = 0.0, 1.0
    u = 0.2178 + 0.2822 * eta * eta  # the root is 0.2178... as eta -> 0 and 1/2 at eta = 1
    for _ in range(100):  # bisection alone closes the bracket in about 55 steps
        slope = eta * (math.log1p(-p * u) - math.log(u)) + p * log_p - math.log1p(eta * u / (1.0 - u))
        lo, hi = (u, hi) if slope > 0.0 else (lo, u)
        step = slope * u * (1.0 - u) * (1.0 - p * u) / eta
        u += step
        # Convergence is quadratic: after a step of relative size 1e-7 the
        # error in u is far below what rounding in f shows at its flat top.
        if abs(step) <= 1e-7 * u:
            break
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    q = p * u
    value = eta * u * (math.log1p(-u) - math.log(u)) + q * log_p + (1.0 - q) * math.log1p(eta * u / (1.0 - u))
    return max(0.0, value / _LN2)


def ad_squashed(eta: float) -> float:
    """Squashed-entanglement upper bound for amplitude damping with survival probability eta:
    h2(1/4 + eta/4) - h2(1/4 - eta/4), as
    [eta ln((3+eta)/(1+eta)) + (3-eta) atanh(eta/3) - (1-eta) atanh(eta)] / (2 ln 2)."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"survival probability must lie in [0, 1], got {eta}")
    if eta == 1.0:  # (1 - eta) * atanh(eta) below would be 0 * inf
        return 1.0
    value = eta * math.log((3.0 + eta) / (1.0 + eta)) + (3.0 - eta) * math.atanh(eta / 3.0) \
        - (1.0 - eta) * math.atanh(eta)
    return max(0.0, value / (2.0 * _LN2))


def tl_bounds(eta_tot: float, nbar_tot: float) -> tuple[float, BoundKind, float, BoundKind]:
    """(lower, lower kind, upper, upper kind) of a thermal-loss channel.

    The lower bound is the reverse coherent information, clamped to >= 0. The
    upper bound adds -(nbar/(1-eta)) log2 eta to the same unclamped rate, so it
    never falls below the lower. Once the output noise reaches the
    transmissivity the channel is entanglement breaking and its capacity is
    exactly 0; the expression touches 0 precisely at that point, and past it
    the upper bound is pinned to 0 rather than letting the expression grow
    again. Unit transmissivity raises DomainError; callers that give ideal
    edges a meaning handle them first.
    """
    if eta_tot == 0.0:
        return 0.0, BoundKind.DARK_FIBRE, 0.0, BoundKind.DARK_FIBRE
    rate = plob_pure_loss(eta_tot)
    if not nbar_tot >= 0.0:
        raise DomainError(f"thermal photon number must be >= 0, got {nbar_tot}")
    if nbar_tot == 0.0:
        return rate, BoundKind.PLOB_EXACT, rate, BoundKind.PLOB_EXACT
    x = nbar_tot / (1.0 - eta_tot)
    raw = rate - bosonic_h(x)
    upper = 0.0 if nbar_tot >= eta_tot else max(0.0, raw - x * math.log2(eta_tot))
    return max(0.0, raw), BoundKind.RCI_LOWER, upper, BoundKind.REE_UPPER


def plob_pure_loss(eta: float) -> float:
    """Exact two-way capacity of the pure-loss channel, -log2(1-eta) = -log1p(-eta)/ln 2."""
    if not 0.0 < eta < 1.0:
        if eta == 1.0:
            raise DomainError("transmissivity 1 is divergent; treat as infinite capacity explicitly")
        raise DomainError(f"transmissivity must lie in (0, 1), got {eta}")
    return -math.log1p(-eta) / _LN2


def family_native(fam: str):
    """``as_damping`` or ``as_thermal``: the converter to ``fam``'s native numbers."""
    if fam not in (FAMILY_AD, FAMILY_TL):
        raise FamilyError(f"unknown channel family {fam!r}")
    return as_damping if fam == FAMILY_AD else as_thermal


def compound(fam: str, send, edge, recv):
    """Node splitting: reduce the chain send -> edge -> recv to one channel.

    An imperfect repeater is split into a receive and a send channel, so a
    directed use of an edge passes the sender's send channel, the edge, then
    the receiver's recv channel. Arguments and result are family-native: a
    damping survival probability eta = 1 - p ("ad") or a (tau, nbar) pair ("tl").
    A bad link value raises DomainError naming the first one (send, edge, recv;
    tau before nbar). Survival probabilities and transmissivities multiply; the
    added noise follows xi_j = tau_j * xi_{j-1} + nbar_j + (1 - tau_j) / 2 from
    xi_0 = 0, and the compound photon number is xi_3 - (1 - tau) / 2. A thermal
    edge of transmissivity 0 gives (0, 0), whose bounds are 0; pure-loss links
    give nbar exactly 0. Rounding can leave the compound noise a hair below 0:
    within NBAR_CLAMP_TOL it is clamped to 0, beyond that it is an error.
    """
    if fam == FAMILY_AD:
        if 0.0 <= send <= 1.0 and 0.0 <= edge <= 1.0 and 0.0 <= recv <= 1.0:
            return send * edge * recv
        bad = next(eta for eta in (send, edge, recv) if not 0.0 <= eta <= 1.0)
        raise DomainError(f"survival probability must lie in [0, 1], got {bad}")
    (tau_s, nbar_s), (tau_e, nbar_e), (tau_r, nbar_r) = send, edge, recv
    if tau_e == 0.0:
        return 0.0, 0.0
    if not (0.0 < tau_s <= 1.0 and 0.0 < tau_e <= 1.0 and 0.0 < tau_r <= 1.0
            and nbar_s >= 0.0 and nbar_e >= 0.0 and nbar_r >= 0.0):
        for tau, nbar in (send, edge, recv):
            if not 0.0 < tau <= 1.0:
                raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
            if not nbar >= 0.0:
                raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
    tau = tau_s * tau_e * tau_r
    if nbar_s == nbar_e == nbar_r == 0.0:
        return tau, 0.0
    xi = tau_e * (nbar_s + 0.5 * (1.0 - tau_s)) + (nbar_e + 0.5 * (1.0 - tau_e))
    nbar = tau_r * xi + (nbar_r + 0.5 * (1.0 - tau_r)) - 0.5 * (1.0 - tau)
    if nbar < 0.0:
        if nbar < -NBAR_CLAMP_TOL:
            raise DomainError(f"compound photon number {nbar} below rounding tolerance")
        nbar = 0.0
    return tau, nbar


def direction_bounds(fam: str, send, edge, recv) -> tuple[float, BoundKind, float, BoundKind]:
    """(lower, lower kind, upper, upper kind) of one directed use of an edge.

    Arguments are family-native, as for ``compound``. A thermal compound of
    unit transmissivity is an ideal edge and has no finite bound.
    """
    reduced = compound(fam, send, edge, recv)
    if fam == FAMILY_AD:
        return ad_rci(reduced), BoundKind.RCI_LOWER, ad_squashed(reduced), BoundKind.SQUASHED_UPPER
    eta_tot, nbar_tot = reduced
    if eta_tot == 1.0:
        if nbar_tot != 0.0:
            raise DomainError("thermal edge with unit transmissivity and added noise is not modelled")
        return math.inf, BoundKind.PLOB_EXACT, math.inf, BoundKind.PLOB_EXACT
    return tl_bounds(eta_tot, nbar_tot)


def orient(a: str, b: str, forward, backward) -> tuple[bool, bool]:
    """Which direction of edge a-b each side uses: (lower from b, upper from b).

    ``forward`` and ``backward`` are the ``direction_bounds`` of a -> b and
    b -> a. The lower and upper bounds are maximized over direction
    independently. Ties go to the lexicographically smaller (sender,
    receiver) id pair.
    """
    if b < a:
        return not forward[0] > backward[0], not forward[2] > backward[2]
    return backward[0] > forward[0], backward[2] > forward[2]

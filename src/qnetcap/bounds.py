"""Single-edge capacity bound functions and per-edge orientation optimization.

Lower bounds are achievable rates from (reverse) coherent information; upper
bounds come from relative entropy of entanglement for thermal-loss channels
and squashed entanglement for amplitude damping. Pure loss is distillable, so
its lower and upper bounds coincide at -log2(1-eta).

Network annotation and threshold solves share ``compound`` (the node-split
send -> edge -> recv reduction) and ``compound_bound`` (one side's bound). An
undirected physical edge can be used in either direction, and with asymmetric
device noise the two directions give different compound channels.
``direction_bounds`` bounds one direction, and ``orient`` picks,
independently for the lower and the upper bound, the more favourable one;
``network.apply_split`` goes through both.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

from .channels import (
    FAMILY_AD,
    FAMILY_TL,
    as_damping,
    as_thermal,
    compose_ad,
    compose_tl,
)
from .errors import DomainError, FamilyError

BOUND_ORDER_TOL = 1e-12


def h2(u: float) -> float:
    """Binary entropy -u log2 u - (1-u) log2(1-u), in bits."""
    if not 0.0 <= u <= 1.0 or math.isnan(u):
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
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"mean photon number must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    t = math.log1p(1.0 / x) if x >= 1.0 else math.log1p(x) - math.log(x)
    return (math.log1p(x) + x * t) / math.log(2.0)


def ad_rci(p_tot: float) -> float:
    """Best coherent-information rate of an amplitude-damping channel.

    Maximizes H2(u) - H2(u*p) over the input excitation u. For 0 < p < 1 the
    objective is strictly concave in u (its second derivative is
    (p-1)/(u(1-u)(1-pu) ln 2) < 0), so its maximizer is the one root of the
    derivative log2((1-u)/u) - p*log2((1-pu)/(pu)). Bisection on the sign of
    that derivative runs until no float lies between the bracket ends, and
    the better end is returned, clamped to >= 0.
    """
    if not 0.0 <= p_tot <= 1.0 or math.isnan(p_tot):
        raise DomainError(f"damping probability must lie in [0, 1], got {p_tot}")
    if p_tot == 0.0:
        return 1.0
    if p_tot == 1.0:
        return 0.0
    return _ad_rci_opt(float(p_tot))


@lru_cache(maxsize=8192)
def _ad_rci_opt(p_tot: float) -> float:
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        # Differences of logs, not the log of a quotient: (1-pu)/(pu)
        # overflows for subnormal p, and pu underflows to 0 for the smallest.
        slope = math.log2(1.0 - mid) - math.log2(mid)
        pu = p_tot * mid
        if pu > 0.0:
            slope -= p_tot * (math.log2(1.0 - pu) - math.log2(pu))
        if slope > 0.0:
            lo = mid
        else:
            hi = mid
    return max(0.0, h2(lo) - h2(lo * p_tot), h2(hi) - h2(hi * p_tot))


def ad_squashed(p_tot: float) -> float:
    """Squashed-entanglement upper bound for amplitude damping."""
    if not 0.0 <= p_tot <= 1.0 or math.isnan(p_tot):
        raise DomainError(f"damping probability must lie in [0, 1], got {p_tot}")
    return max(0.0, h2(0.5 - p_tot / 4.0) - h2(1.0 - p_tot / 4.0))


def tl_rci(eta_tot: float, nbar_tot: float) -> float:
    """Reverse-coherent-information rate of a thermal-loss channel, clamped to >= 0."""
    raw = _tl_rci_raw(eta_tot, nbar_tot)
    return max(0.0, raw)


def _tl_rci_raw(eta_tot: float, nbar_tot: float) -> float:
    if not 0.0 < eta_tot < 1.0 or math.isnan(eta_tot):
        if eta_tot == 1.0:
            raise DomainError("transmissivity 1 is divergent; treat as infinite capacity explicitly")
        raise DomainError(f"transmissivity must lie in (0, 1), got {eta_tot}")
    if nbar_tot < 0.0 or math.isnan(nbar_tot):
        raise DomainError(f"thermal photon number must be >= 0, got {nbar_tot}")
    return -math.log2(1.0 - eta_tot) - bosonic_h(nbar_tot / (1.0 - eta_tot))


def tl_ree(eta_tot: float, nbar_tot: float) -> float:
    """Relative-entropy-of-entanglement upper bound for a thermal-loss channel.

    Adds -(nbar/(1-eta)) log2 eta on top of the unclamped rate, so it never
    falls below tl_rci. Once the output noise reaches the transmissivity the
    channel is entanglement breaking and its capacity is exactly 0; the
    expression touches 0 precisely at that point, and past it the bound is
    pinned to 0 rather than letting the expression grow again.
    """
    return _tl_ree_from_raw(_tl_rci_raw(eta_tot, nbar_tot), eta_tot, nbar_tot)


def _tl_ree_from_raw(raw: float, eta_tot: float, nbar_tot: float) -> float:
    """``tl_ree`` given the unclamped rate ``raw`` of the same channel."""
    if nbar_tot >= eta_tot:
        return 0.0
    return max(0.0, raw - (nbar_tot / (1.0 - eta_tot)) * math.log2(eta_tot))


def plob_pure_loss(eta: float) -> float:
    """Exact two-way capacity of the pure-loss channel, -log2(1-eta)."""
    if not 0.0 < eta < 1.0 or math.isnan(eta):
        if eta == 1.0:
            raise DomainError("transmissivity 1 is divergent; treat as infinite capacity explicitly")
        raise DomainError(f"transmissivity must lie in (0, 1), got {eta}")
    return -math.log2(1.0 - eta)


class BoundKind(enum.Enum):
    RCI_LOWER = "rci-lower"
    SQUASHED_UPPER = "squashed-upper"
    REE_UPPER = "ree-upper"
    PLOB_EXACT = "plob-exact"


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
    damping probability ("ad") or a (tau, nbar) pair ("tl").
    """
    return (compose_ad if fam == FAMILY_AD else compose_tl)((send, edge, recv))


def compound_bound(fam: str, reduced, selector: str) -> tuple[float, BoundKind]:
    """The "lower" or "upper" bound of a reduced compound, with its kind.

    Only the selected side is evaluated. Unit transmissivity raises
    DomainError; callers that give ideal edges a meaning handle them first.
    """
    if fam == FAMILY_AD:
        if selector == "lower":
            return ad_rci(reduced), BoundKind.RCI_LOWER
        return ad_squashed(reduced), BoundKind.SQUASHED_UPPER
    eta_tot, nbar_tot = reduced
    if nbar_tot == 0.0:
        return plob_pure_loss(eta_tot), BoundKind.PLOB_EXACT
    if selector == "lower":
        return tl_rci(eta_tot, nbar_tot), BoundKind.RCI_LOWER
    return tl_ree(eta_tot, nbar_tot), BoundKind.REE_UPPER


def direction_bounds(fam: str, send, edge, recv) -> tuple[float, BoundKind, float, BoundKind]:
    """(lower, lower kind, upper, upper kind) of one directed use of an edge.

    Arguments are family-native, as for ``compound``. A thermal compound of
    unit transmissivity is an ideal edge and has no finite bound. The result
    equals both sides of ``compound_bound``; a noisy thermal compound
    evaluates its rate expression once for both.
    """
    reduced = compound(fam, send, edge, recv)
    if fam == FAMILY_TL:
        eta_tot, nbar_tot = reduced
        if eta_tot == 1.0:
            if nbar_tot != 0.0:
                raise DomainError("thermal edge with unit transmissivity and added noise is not modelled")
            return math.inf, BoundKind.PLOB_EXACT, math.inf, BoundKind.PLOB_EXACT
        if nbar_tot != 0.0:
            raw = _tl_rci_raw(eta_tot, nbar_tot)
            return (max(0.0, raw), BoundKind.RCI_LOWER,
                    _tl_ree_from_raw(raw, eta_tot, nbar_tot), BoundKind.REE_UPPER)
    return (*compound_bound(fam, reduced, "lower"), *compound_bound(fam, reduced, "upper"))


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

"""Single-edge capacity bounds, computed a column at a time.

Two kernels hold all the numerics, each a loop over a batch with no Python
call per element: ``compounds``, the package's one compound reduction, turns
node-split chains send -> edge -> recv into channels, and ``bound_columns``
turns those into the (lower, lower kind, upper, upper kind) columns.
``network.apply_split`` calls each once per graph and a threshold scan once
per solve. One value is a one-element batch, as in
``bound_columns("tl", [(eta, nbar)])``. The damping branch of
``bound_columns`` is two loops, one per side, ``coherent_information`` and
``squashed_entanglement``, which a bisection step of the threshold solver
calls on its own side only.
"""

from __future__ import annotations

import enum
import math

from .channels import FAMILY_AD
from .errors import DomainError

# Tiny negative compound noise from rounding is clamped; anything lower is a bug.
NBAR_CLAMP_TOL = 1e-12
_LN2 = math.log(2.0)


class BoundKind(enum.Enum):
    RCI_LOWER = "rci-lower"
    SQUASHED_UPPER = "squashed-upper"
    REE_UPPER = "ree-upper"
    PLOB_EXACT = "plob-exact"
    DARK_FIBRE = "dark-fibre"  # a thermal compound of transmissivity 0: exactly 0


_RCI, _SQUASHED, _REE, _EXACT, _DARK = BoundKind  # the members in order, read without the enum's slow lookup


def compounds(fam: str, directions) -> list:
    """Node splitting: the one channel each chain (send, edge, recv) of ``directions`` reduces to.

    A repeater is split into a receive and a send channel: a directed use of an edge
    passes the sender's send channel, the edge, then the receiver's recv channel.
    Links and results are family-native: a damping survival probability eta = 1 - p
    ("ad") or a (tau, nbar) pair ("tl"). A bad link value raises DomainError naming
    the first one (in batch order, then send, edge, recv; tau before nbar). Survival
    probabilities and transmissivities multiply; the added noise follows
    xi_j = tau_j * xi_{j-1} + nbar_j + (1 - tau_j) / 2 from xi_0 = 0, and the
    compound photon number is xi_3 - (1 - tau) / 2. A thermal edge of transmissivity
    0 gives (0, 0), whose bounds are 0; pure-loss links give nbar exactly 0. Rounding
    can leave the compound noise a hair below 0: within NBAR_CLAMP_TOL it is clamped
    to 0, beyond that it is an error.
    """
    reduced = []
    if fam == FAMILY_AD:
        for send, edge, recv in directions:
            if not (0.0 <= send <= 1.0 and 0.0 <= edge <= 1.0 and 0.0 <= recv <= 1.0):
                bad = next(eta for eta in (send, edge, recv) if not 0.0 <= eta <= 1.0)
                raise DomainError(f"survival probability must lie in [0, 1], got {bad}")
            reduced.append(send * edge * recv)
        return reduced
    for (tau_s, nbar_s), (tau_e, nbar_e), (tau_r, nbar_r) in directions:
        if tau_e == 0.0:
            reduced.append((0.0, 0.0))
            continue
        if not (0.0 < tau_s <= 1.0 and 0.0 < tau_e <= 1.0 and 0.0 < tau_r <= 1.0
                and nbar_s >= 0.0 and nbar_e >= 0.0 and nbar_r >= 0.0):
            for tau, nbar in ((tau_s, nbar_s), (tau_e, nbar_e), (tau_r, nbar_r)):
                if not 0.0 < tau <= 1.0:
                    raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
                if not nbar >= 0.0:
                    raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
        tau = tau_s * tau_e * tau_r
        if nbar_s == nbar_e == nbar_r == 0.0:
            reduced.append((tau, 0.0))
            continue
        xi = tau_e * (nbar_s + 0.5 * (1.0 - tau_s)) + (nbar_e + 0.5 * (1.0 - tau_e))
        nbar = tau_r * xi + (nbar_r + 0.5 * (1.0 - tau_r)) - 0.5 * (1.0 - tau)
        if nbar < 0.0:
            if nbar < -NBAR_CLAMP_TOL:
                raise DomainError(f"compound photon number {nbar} below rounding tolerance")
            nbar = 0.0
        reduced.append((tau, nbar))
    return reduced


def coherent_information(etas) -> list[float]:
    """The damping lower bound of each survival probability eta = 1 - p of ``etas``.

    It maximizes the coherent information f(u) = H2(u) - H2(q), q = pu, over
    the input excitation u. With r = eta*u/(1-u), f ln 2 = eta*u*ln((1-u)/u) +
    q*ln(1-eta) + (1-q)*ln(1+r) and f' ln 2 = eta*(ln(1-q) - ln u) +
    p*ln(1-eta) - ln(1+r), sums of O(eta) terms. f is strictly concave,
    f'' ln 2 = -eta/(u(1-u)(1-q)), so Newton's method finds the root of f';
    the sign of f' keeps a bracket around it, and a step that leaves the
    bracket is replaced by bisection.
    """
    lower = []
    for eta in etas:
        if eta == 0.0 or eta == 1.0:
            lower.append(eta)
            continue
        p, log_p = 1.0 - eta, math.log1p(-eta)
        lo, hi = 0.0, 1.0
        u = 0.2178 + 0.2822 * eta * eta  # the root is 0.2178... as eta -> 0 and 1/2 at eta = 1
        for _ in range(100):  # bisection alone closes the bracket in about 55 steps
            slope = eta * (math.log1p(-p * u) - math.log(u)) + p * log_p - math.log1p(eta * u / (1.0 - u))
            if slope > 0.0:  # an if, and no abs() below: this loop is the damping kernel's hot path
                lo = u
            else:
                hi = u
            step = slope * u * (1.0 - u) * (1.0 - p * u) / eta
            u += step
            # Convergence is quadratic: after a step of relative size 1e-7 the
            # error in u is far below what rounding in f shows at its flat top.
            if -1e-7 * u <= step <= 1e-7 * u:
                break
            if not lo < u < hi:
                u = 0.5 * (lo + hi)
        q = p * u
        value = eta * u * (math.log1p(-u) - math.log(u)) + q * log_p + (1.0 - q) * math.log1p(eta * u / (1.0 - u))
        lower.append(value / _LN2 if value > 0.0 else 0.0)
    return lower


def squashed_entanglement(etas) -> list[float]:
    """The damping upper bound h2(1/4 + eta/4) - h2(1/4 - eta/4) of each eta of ``etas``, as
    [eta ln((3+eta)/(1+eta)) + (3-eta) atanh(eta/3) - (1-eta) atanh(eta)] / (2 ln 2)."""
    upper = []
    for eta in etas:
        if eta == 1.0:  # (1 - eta) * atanh(eta) below would be 0 * inf
            upper.append(1.0)
            continue
        value = eta * math.log((3.0 + eta) / (1.0 + eta)) + (3.0 - eta) * math.atanh(eta / 3.0) \
            - (1.0 - eta) * math.atanh(eta)
        upper.append(value / (2.0 * _LN2) if value > 0.0 else 0.0)
    return upper


def bound_columns(fam: str, reduced) -> list[list]:
    """The [lower, lower kind, upper, upper kind] columns of the compounds ``reduced``.

    Damping compounds get ``coherent_information`` and ``squashed_entanglement``,
    a loop each. Compounds are as ``compounds`` gives them: only the error below is checked.

    Thermal loss, (eta, nbar): a compound that transmits nothing (a dark
    fibre, or a product that underflows to 0) is bounded 0, of kind
    ``DARK_FIBRE``, and pure loss, which is distillable, -log2(1-eta). Once
    the noise reaches the transmissivity, nbar >= eta, the channel is
    entanglement breaking and both sides are 0, of kinds ``RCI_LOWER`` and
    ``REE_UPPER``. Otherwise the lower bound is the rate -log2(1-eta) - g(x),
    x = nbar/(1-eta), clamped to >= 0, with the thermal entropy g(x) =
    (x+1)log2(x+1) - x log2 x as (ln(1+x) + x*ln(1 + 1/x)) / ln 2, where below
    x = 1, as 1/x can overflow, ln(1 + 1/x) = ln(1+x) - ln x. The upper bound
    adds -x log2 eta to the same unclamped rate, so it never falls below the
    lower. Unit transmissivity is an ideal edge, bounded ``inf``; with added
    noise it raises DomainError. ``log1p`` keeps every formula's relative
    precision as eta -> 0.
    """
    if fam == FAMILY_AD:
        lower, upper = coherent_information(reduced), squashed_entanglement(reduced)
        return [lower, [_RCI] * len(lower), upper, [_SQUASHED] * len(upper)]
    lower, lower_kind, upper, upper_kind = [], [], [], []
    for eta, nbar in reduced:
        if eta == 1.0 and nbar != 0.0:
            raise DomainError("thermal edge with unit transmissivity and added noise is not modelled")
        rate = -math.log1p(-eta) / _LN2 if eta != 1.0 else math.inf
        if eta == 0.0:
            low, low_kind, high, high_kind = 0.0, _DARK, 0.0, _DARK
        elif nbar == 0.0:
            low, low_kind, high, high_kind = rate, _EXACT, rate, _EXACT
        elif nbar >= eta:
            low, low_kind, high, high_kind = 0.0, _RCI, 0.0, _REE
        else:
            x = nbar / (1.0 - eta)
            low = rate - (math.log1p(x) + x * (math.log1p(1.0 / x) if x >= 1.0 else math.log1p(x) - math.log(x))) / _LN2
            high = low - x * math.log2(eta)
            low, low_kind, high, high_kind = low if low > 0.0 else 0.0, _RCI, high if high > 0.0 else 0.0, _REE
        lower.append(low)
        lower_kind.append(low_kind)
        upper.append(high)
        upper_kind.append(high_kind)
    return [lower, lower_kind, upper, upper_kind]


import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnetcap.bounds import (
    BoundKind,
    ad_rci,
    ad_squashed,
    bosonic_h,
    compound,
    direction_bounds,
    h2,
    plob_pure_loss,
    tl_bounds,
)
from qnetcap.channels import (
    FAMILY_AD,
    FAMILY_TL,
    AmplitudeDamping,
    FibreParams,
    Identity,
    NodeSpec,
    ThermalLoss,
    as_thermal,
)
from qnetcap.errors import DomainError, FamilyError
from qnetcap.network import annotate_uniform
from qnetcap.oracles import gaussian_propagate, oriented_edge_bounds, verify_theorem2
from qnetcap.qkd import from_preset, receiver_noise
from qnetcap.wrn import WrnSpec, generate, min_nodal_density, solve_threshold

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
etas = st.floats(min_value=1e-6, max_value=1.0 - 1e-9, allow_nan=False)
nbars = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def test_h2_values():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == 1.0
    assert h2(0.11) == pytest.approx(0.499915958164528, rel=1e-14)
    with pytest.raises(DomainError):
        h2(-0.1)
    with pytest.raises(DomainError):
        h2(float("nan"))


@given(unit)
@settings(max_examples=200)
def test_h2_symmetry(u):
    assert h2(u) == pytest.approx(h2(1.0 - u), abs=1e-12)


def test_bosonic_h_values():
    assert bosonic_h(0.0) == 0.0
    assert bosonic_h(1.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        bosonic_h(-0.1)


def _bosonic_h_decimal(x: float) -> Decimal:
    """(x+1) log2(x+1) - x log2 x in 60-digit decimal arithmetic, at exactly x."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(x)
        return ((d + 1) * (d + 1).ln() - d * d.ln()) / Decimal(2).ln()


def test_bosonic_h_matches_decimal_reference():
    # Quarter decades from 1e-16 to 1e12: small x, where 1 + x rounds, and
    # large x, where the two terms of the textbook form cancel.
    for k in range(-64, 49):
        x = 10.0 ** (k / 4)
        ref = _bosonic_h_decimal(x)
        assert abs(Decimal(bosonic_h(x)) - ref) <= Decimal("1e-14") * ref, x


def test_ad_rci_endpoints_and_peak():
    assert ad_rci(1.0 - 0.0) == 1.0
    assert ad_rci(1.0 - 1.0) == 0.0
    assert ad_rci(1.0 - 0.5) == pytest.approx(0.27155330316361204, rel=1e-10)
    assert ad_rci(1.0 - 0.1) == pytest.approx(0.7300846722655403, rel=1e-10)
    with pytest.raises(DomainError):
        ad_rci(1.0 - 1.0001)


def test_ad_rci_beats_every_grid_point():
    # the maximized value cannot fall below the objective at any u
    grid = [i / 1000 for i in range(1001)]
    for p in (1e-300, 1e-9, 1e-4, 0.05, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12):
        best = ad_rci(1.0 - p)
        for u in grid:
            assert best >= h2(u) - h2(u * p) - 1e-12


def _h2_decimal(u: Decimal) -> Decimal:
    if u in (0, 1):
        return Decimal(0)
    return -(u * u.ln() + (1 - u) * (1 - u).ln()) / Decimal(2).ln()


def _ad_rci_decimal(eta: float) -> Decimal:
    """max_u H2(u) - H2((1-eta)u) in 60-digit decimal arithmetic, at exactly eta,
    by bisection on the sign of the derivative of the strictly concave objective."""
    with localcontext() as ctx:
        ctx.prec = 60
        p = 1 - Decimal(eta)
        if p == 0:
            return Decimal(1)
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(80):  # u to 2^-80: the error in the maximum is of order its square
            u = (lo + hi) / 2
            slope = ((1 - u) / u).ln() - p * ((1 - p * u) / (p * u)).ln()
            lo, hi = (u, hi) if slope > 0 else (lo, u)
        return _h2_decimal(u) - _h2_decimal(p * u)


def _ad_squashed_decimal(eta: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(eta) / 4
        return _h2_decimal(Decimal("0.25") + e) - _h2_decimal(Decimal("0.25") - e)


def _plob_decimal(eta: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return -(1 - Decimal(eta)).ln() / Decimal(2).ln()


# Half decades from 1e-15 to 1, and 1 - 10^-k for k = 1 to 15.
REFERENCE_ETAS = [10.0 ** (k / 2) for k in range(-30, 1)] + [1.0 - 10.0 ** -k for k in range(1, 16)]


@pytest.mark.parametrize("eta", REFERENCE_ETAS)
def test_bounds_match_decimal_reference_down_to_full_loss(eta):
    for got, ref in ((ad_rci(eta), _ad_rci_decimal(eta)), (ad_squashed(eta), _ad_squashed_decimal(eta))):
        assert abs(Decimal(got) - ref) <= Decimal("1e-12") * ref
    if eta < 1.0:
        ref = _plob_decimal(eta)
        assert abs(Decimal(plob_pure_loss(eta)) - ref) <= Decimal("1e-12") * ref


def _ad_rci_bisection(p_tot: float) -> float:
    """The bisection on the damping probability that ``ad_rci`` used before it
    was written in the survival probability, as a reference."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        slope = math.log2(1.0 - mid) - math.log2(mid)
        pu = p_tot * mid
        if pu > 0.0:
            slope -= p_tot * (math.log2(1.0 - pu) - math.log2(pu))
        if slope > 0.0:
            lo = mid
        else:
            hi = mid
    return max(0.0, h2(lo) - h2(lo * p_tot), h2(hi) - h2(hi * p_tot))


def test_ad_rci_matches_the_bisection_on_p():
    # eta from 1e-6 to 1 - 1e-6, as damping probabilities. The bisection
    # differences two binary entropies below 1 bit, so it carries an absolute
    # error of a few units of 2^-52: against the decimal reference it is up to
    # 9e-11 relative off for eta from 1e-6 to 1e-5, and within 1e-12 from 1e-3.
    etas = [10.0 ** (k / 40) for k in range(-240, 0)] + [1.0 - 10.0 ** (k / 40) for k in range(-240, -28)]
    for p in (1.0 - eta for eta in etas):
        old = _ad_rci_bisection(p)
        assert abs(ad_rci(1.0 - p) - old) <= 1e-12 * old + 4 * sys.float_info.epsilon


def test_bounds_hold_no_cache():
    import qnetcap.bounds as bounds_mod

    assert [name for name, value in vars(bounds_mod).items() if hasattr(value, "cache_clear")] == []


def test_ad_squashed_values():
    assert ad_squashed(1.0 - 0.0) == pytest.approx(1.0, rel=1e-15)
    assert ad_squashed(1.0 - 1.0) == 0.0
    assert ad_squashed(1.0 - 0.5) == pytest.approx(0.41086955972536865, rel=1e-12)


@given(unit)
@example(p=5e-324)
@settings(max_examples=300, deadline=None)
def test_ad_bound_order(p):
    assert ad_rci(1.0 - p) <= ad_squashed(1.0 - p) + 1e-12


@given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=1e-4, max_value=0.2))
@example(p=2.225073858507e-311, dp=0.125)
@settings(max_examples=150, deadline=None)
def test_ad_rci_monotone_in_p(p, dp):
    hi = min(1.0, p + dp)
    assert ad_rci(1.0 - hi) <= ad_rci(1.0 - p) + 1e-10


def test_tl_rci_values_and_domain():
    assert tl_bounds(0.5, 0.0)[0] == pytest.approx(1.0, rel=1e-15)
    assert tl_bounds(0.5, 0.01)[0] == pytest.approx(0.8579823409637992, rel=1e-12)
    assert tl_bounds(0.5, 10.0)[0] == 0.0
    # A compound that transmits nothing is bounded 0; outside [0, 1) there is no bound.
    assert tl_bounds(0.0, 0.0) == (0.0, BoundKind.DARK_FIBRE, 0.0, BoundKind.DARK_FIBRE)
    with pytest.raises(DomainError, match="divergent"):
        tl_bounds(1.0, 0.0)
    with pytest.raises(DomainError):
        tl_bounds(-0.5, 0.0)
    with pytest.raises(DomainError):
        tl_bounds(1.5, 0.01)
    with pytest.raises(DomainError):
        tl_bounds(0.5, -0.1)


def test_tl_ree_values():
    assert tl_bounds(0.5, 0.01)[2] == pytest.approx(0.8779823409637992, rel=1e-12)
    # entanglement-breaking regime: capacity is exactly zero
    assert tl_bounds(0.1, 1.0)[2] == 0.0
    assert tl_bounds(0.1, 0.1)[2] == 0.0
    assert tl_bounds(0.3, 0.9)[2] == 0.0


@given(etas, nbars)
@settings(max_examples=400)
def test_tl_bound_order(eta, nbar):
    lower, _, upper, _ = tl_bounds(eta, nbar)
    assert lower <= upper + 1e-12


@given(etas, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=0.5))
@example(eta=0.9999999989999999, nbar=0.75, dn=5.960464477539063e-08)  # x near 1e9
@example(eta=0.5, nbar=5e-324, dn=0.125)  # subnormal x: 1/x overflows
@settings(max_examples=200)
def test_tl_ree_monotone_in_noise(eta, nbar, dn):
    assert tl_bounds(eta, nbar + dn)[2] <= tl_bounds(eta, nbar)[2] + 1e-12


@given(etas)
@settings(max_examples=200)
def test_pure_loss_bounds_coincide(eta):
    exact = plob_pure_loss(eta)
    assert tl_bounds(eta, 0.0) == (exact, BoundKind.PLOB_EXACT, exact, BoundKind.PLOB_EXACT)


def _reference_tl_rate(eta_tot, nbar_tot):
    rate = plob_pure_loss(eta_tot)
    if not nbar_tot >= 0.0:
        raise DomainError(f"thermal photon number must be >= 0, got {nbar_tot}")
    return rate - bosonic_h(nbar_tot / (1.0 - eta_tot))


def _reference_tl_side(reduced, selector):
    """The thermal branch of the former per-side ``compound_bound`` as it was
    when each side had a function of its own, each evaluating the rate
    expression, as a reference."""
    eta_tot, nbar_tot = reduced
    if eta_tot == 0.0:
        return 0.0, BoundKind.DARK_FIBRE
    if nbar_tot == 0.0:
        return plob_pure_loss(eta_tot), BoundKind.PLOB_EXACT
    raw = _reference_tl_rate(eta_tot, nbar_tot)
    if selector == "lower":
        return max(0.0, raw), BoundKind.RCI_LOWER
    if nbar_tot >= eta_tot:
        return 0.0, BoundKind.REE_UPPER
    return max(0.0, raw - (nbar_tot / (1.0 - eta_tot)) * math.log2(eta_tot)), BoundKind.REE_UPPER


def _reference_tl_direction(reference_compound, send, edge, recv):
    reduced = reference_compound(FAMILY_TL, send, edge, recv)
    if reduced[0] == 1.0:
        if reduced[1] != 0.0:
            raise DomainError("thermal edge with unit transmissivity and added noise is not modelled")
        return math.inf, BoundKind.PLOB_EXACT, math.inf, BoundKind.PLOB_EXACT
    return (*_reference_tl_side(reduced, "lower"), *_reference_tl_side(reduced, "upper"))


def _bits(fn, *args):
    """fn(*args) with floats as hex, or the message of the DomainError it raises."""
    try:
        result = fn(*args)
    except DomainError as exc:
        return str(exc)
    return [x.hex() if isinstance(x, float) else x for x in result]


# Dark, subnormal, within an ulp of 1, past either end, NaN and infinity.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0,
               -0.5, 1.5, math.nan, math.inf]


@st.composite
def thermal_compounds(draw):
    eta = draw(st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.0) | st.floats(0.0, 1e-300)
               | st.floats(1.0 - 1e-9, 1.0) | st.floats())
    # Some noise draws are a multiple of eta, so that nbar >= eta and its boundary are hit.
    nbar = draw(st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 3.0) | st.floats(0.0, 2.0).map(lambda r: r * eta)
                | st.just(eta) | st.floats())
    return eta, nbar


@given(thermal_compounds())
@example((0.1, 0.1))  # the upper bound touches 0 where nbar = eta
@example((0.0, math.nan))  # a dark compound whatever its noise
@example((5e-324, 0.5))
@example((math.nextafter(1.0, 0.0), 1e-3))
@example((1.0, 0.0))
@example((0.5, -0.0))
@settings(max_examples=1500, deadline=None)
def test_tl_bounds_match_the_per_side_reference(reduced):
    lower, upper = (_bits(_reference_tl_side, reduced, selector) for selector in ("lower", "upper"))
    assert _bits(tl_bounds, *reduced) == (lower if isinstance(lower, str) else lower + upper)


def _outcome(fn, *args):
    """fn(*args) with floats as hex, or the type and message of what it raises."""
    try:
        result = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return [x.hex() for x in (result if isinstance(result, tuple) else (result,))]


# Dark, negative zero, subnormal, unit, NaN, infinity, and either side of the domain.
LINK_FLOATS = [0.0, -0.0, 5e-324, 1.0, math.nan, math.inf, 1e-300, 0.5, -0.5, 1.5]
thermal_links = st.tuples(st.sampled_from(LINK_FLOATS) | st.floats(0.0, 1.0) | st.floats(),
                          st.sampled_from(LINK_FLOATS) | st.floats(0.0, 3.0) | st.floats(0.0, 1e-300) | st.floats())


@given(thermal_links, thermal_links, thermal_links)
# Rounding leaves each of these compound noises at -5.55e-17, which is clamped to 0.
@example((0.1859062658947177, 1e-300), (0.8599465287952899, 0.0), (0.7431466604224978, 5e-324))
@example((0.9144446394025773, 1e-300), (0.5343300438262426, 0.0), (0.06532276962299033, 0.0))
@example((0.17757811046169503, 5e-324), (0.5008996195572266, 5e-324), (0.930107881773361, 0.0))
@example((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))  # an ideal edge
@example((1.0, -0.0), (0.5, -0.0), (1.0, 0.0))  # pure loss with negative zeros
@example((0.5, 0.01), (0.0, math.nan), (0.5, 0.01))  # a dark edge whatever its noise
@example((0.5, math.nan), (0.5, 0.01), (0.5, 0.01))
@example((0.5, 0.01), (math.nan, 0.01), (0.5, 0.01))
@example((0.5, 0.01), (0.5, math.inf), (0.5, 0.01))
@example((0.5, 0.01), (0.5, 0.01), (-0.0, 0.01))
@example((5e-324, 0.01), (5e-324, 0.0), (5e-324, 0.0))  # the product underflows to 0
@settings(max_examples=3000, deadline=None)
def test_closed_form_tl_compound_is_compose_tl(reference_compound, send, edge, recv):
    got = _outcome(compound, FAMILY_TL, send, edge, recv)
    assert got == _outcome(reference_compound, FAMILY_TL, send, edge, recv)


# Both ends of the domain, an ulp past each, negative zero, subnormal, NaN and infinity.
SURVIVAL_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
                   -5e-324, math.nan, math.inf, -math.inf]
survivals = st.sampled_from(SURVIVAL_FLOATS) | st.floats(0.0, 1.0) | st.floats()


@given(survivals, survivals, survivals)
@example(0.5, math.nan, 1.2)  # the first bad value is named
@example(-0.0, 0.5, 1.0)
@example(5e-324, 5e-324, 1.0)  # the product underflows to 0
@settings(max_examples=3000, deadline=None)
def test_closed_form_ad_compound_is_compose_ad(reference_compound, send, edge, recv):
    got = _outcome(compound, FAMILY_AD, send, edge, recv)
    assert got == _outcome(reference_compound, FAMILY_AD, send, edge, recv)


thermal_devices = st.tuples(st.sampled_from([1.0, 1e-200, 0.5]) | st.floats(1e-6, 1.0),
                            st.sampled_from([0.0, 5e-324]) | nbars)


@given(thermal_devices, st.tuples(st.sampled_from([0.0, 5e-324, 1.0]) | etas, st.just(0.0) | nbars), thermal_devices)
@example((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))  # an ideal edge
@example((1.0, 0.0), (1.0, 0.01), (1.0, 0.0))
@example((1e-200, 0.0), (0.5, 0.01), (1e-200, 0.0))
@example((1.0, 0.0), (0.1, 0.5), (1.0, 0.0))
@settings(max_examples=1000, deadline=None)
def test_tl_direction_bounds_match_the_per_side_reference(reference_compound, send, edge, recv):
    assert _bits(direction_bounds, FAMILY_TL, send, edge, recv) == \
        _bits(_reference_tl_direction, reference_compound, send, edge, recv)

def test_plob_values():
    assert plob_pure_loss(0.5) == 1.0
    assert plob_pure_loss(0.75) == 2.0
    with pytest.raises(DomainError):
        plob_pure_loss(1.0)
    with pytest.raises(DomainError):
        plob_pure_loss(0.0)


def test_oriented_bounds_symmetric_edge():
    a = NodeSpec("a")
    b = NodeSpec("b")
    eb = oriented_edge_bounds(ThermalLoss(0.5), a, b, "tl")
    assert eb.lower == eb.upper == 1.0
    assert eb.lower_kind is BoundKind.PLOB_EXACT
    # tie between directions goes to the lexicographically smaller pair
    assert eb.lower_orientation == ("a", "b")
    assert eb.upper_orientation == ("a", "b")


def test_oriented_bounds_prefer_better_direction():
    # receiver loss hurts more than sender loss for thermal noise, so sending
    # from the noisy node toward the clean one wins
    noisy = NodeSpec("n", recv=ThermalLoss(0.8, 0.05), send=ThermalLoss(1.0, 0.0))
    clean = NodeSpec("c")
    eb = oriented_edge_bounds(ThermalLoss(0.5, 0.001), noisy, clean, "tl")
    split = compound("tl", as_thermal(noisy.send), (0.5, 0.001), as_thermal(clean.recv))
    assert eb.lower == pytest.approx(tl_bounds(*split)[0], rel=1e-12)
    assert eb.lower_orientation == ("n", "c")


def test_oriented_bounds_ad_kinds():
    a = NodeSpec("a", recv=AmplitudeDamping(0.1))
    b = NodeSpec("b")
    eb = oriented_edge_bounds(AmplitudeDamping(0.2), a, b, "ad")
    assert eb.lower_kind is BoundKind.RCI_LOWER
    assert eb.upper_kind is BoundKind.SQUASHED_UPPER
    assert 0.0 < eb.lower <= eb.upper


def test_oriented_bounds_family_resolution():
    a = NodeSpec("a")
    b = NodeSpec("b")
    eb = oriented_edge_bounds(Identity(), a, b, fam="tl")
    assert eb.lower == math.inf and eb.upper == math.inf
    eb = oriented_edge_bounds(Identity(), a, b, fam="ad")
    assert eb.lower == 1.0 and eb.upper == 1.0
    mixed = NodeSpec("m", recv=ThermalLoss(0.9, 0.0))
    with pytest.raises(FamilyError):
        oriented_edge_bounds(AmplitudeDamping(0.1), mixed, b, fam="ad")
    damping = NodeSpec("d", send=AmplitudeDamping(0.1))
    with pytest.raises(FamilyError):
        oriented_edge_bounds(ThermalLoss(0.5), damping, b, fam="tl")
    with pytest.raises(FamilyError):
        oriented_edge_bounds(AmplitudeDamping(0.1), a, b, fam="tl")


def test_unit_transmissivity_with_noise_rejected():
    a = NodeSpec("a")
    b = NodeSpec("b")
    with pytest.raises(DomainError):
        oriented_edge_bounds(ThermalLoss(1.0, 0.1), a, b, "tl")


# Every domain check on a float is one comparison that NaN fails. Each entry:
# the checked call of x, its message on a bad x, and whether it takes -0.0.
DOMAIN_CHECKS = {
    "AmplitudeDamping.p": (AmplitudeDamping, "damping probability must lie in [0, 1], got {}", True),
    "ThermalLoss.tau": (ThermalLoss, "transmissivity must lie in (0, 1], got {}", False),
    "ThermalLoss.nbar": (lambda x: ThermalLoss(0.5, x), "thermal photon number must be >= 0, got {}", True),
    "FibreParams.length_km": (FibreParams, "fibre length must be >= 0 km, got {}", True),
    "FibreParams.nbar_B": (lambda x: FibreParams(1.0, nbar_B=x), "background photons must be >= 0, got {}", True),
    # The send tau varies: an edge tau of -0.0 takes the dark-edge shortcut. These two
    # entries keep the names of the checks of the n-ary reduction that compound replaced.
    "compose_tl.tau": (lambda x: compound(FAMILY_TL, (x, 0.0), (0.5, 0.0), (1.0, 0.0)),
                       "transmissivity must lie in (0, 1], got {}", False),
    "compose_tl.nbar": (lambda x: compound(FAMILY_TL, (0.5, 0.0), (0.5, 0.0), (0.5, x)),
                        "thermal photon number must be >= 0, got {}", True),
    "h2": (h2, "probability must lie in [0, 1], got {}", True),
    "bosonic_h": (bosonic_h, "mean photon number must be >= 0, got {}", True),
    "tl_bounds.nbar_tot": (lambda x: tl_bounds(0.5, x), "thermal photon number must be >= 0, got {}", True),
    "compound.nbar": (lambda x: compound(FAMILY_TL, (0.5, 0.0), (0.5, x), (1.0, 0.0)),
                      "thermal photon number must be >= 0, got {}", True),
    "compound.eta": (lambda x: compound(FAMILY_AD, 0.5, x, 1.0), "survival probability must lie in [0, 1], got {}",
                     True),
    "WrnSpec.radius": (lambda x: WrnSpec("manhattan8", x, 10.0, "tl"), "radius must be an integer, got {}", False),
    "ad_rci": (ad_rci, "survival probability must lie in [0, 1], got {}", True),
    "ad_squashed": (ad_squashed, "survival probability must lie in [0, 1], got {}", True),
    "gaussian_propagate.nbar": (lambda x: gaussian_propagate(((1.0, 0.0), (0.0, 1.0)), [(0.5, x)]),
                                "thermal photon number must be >= 0, got {}", True),
    "plob_pure_loss": (plob_pure_loss, "transmissivity must lie in (0, 1), got {}", False),
    "receiver_noise": (lambda x: receiver_noise(from_preset("table1-heterodyne-llo"), x),
                       "channel transmissivity must lie in (0, 1], got {}", False),
    "min_nodal_density": (lambda x: min_nodal_density(x, "manhattan8"), "maximum link length must be > 0 km, got {}",
                          False),
    "solve_threshold.target": (lambda x: solve_threshold(lambda xi: 1.0 / xi, x, 4.0),
                               "capacity target must be > 0, got {}", False),
    "solve_threshold.scale": (lambda x: solve_threshold(lambda xi: 1.0 / xi, 1.0, x), "scale must be > 0, got {}",
                              False),
    "solve_threshold.bracket": (lambda x: solve_threshold(lambda xi: 1.0 / xi, 1.0, 1.0, (x, 1e3)),
                                "search bracket must satisfy 0 < lo < hi < inf, got [{}, 1000.0]", False),
    "annotate_uniform": (lambda x: annotate_uniform(generate(WrnSpec("triangular6", 2, 10.0, "ad")), x),
                         "edge value must be >= 0, got {}", True),
    "verify_theorem2": (lambda x: verify_theorem2(WrnSpec("triangular6", 2, 10.0, "ad"), x),
                        "edge value must be > 0, got {}", False),
}


@pytest.mark.parametrize("name", DOMAIN_CHECKS)
def test_domain_checks_refuse_nan_and_keep_negative_zero(name):
    call, message, takes_negative_zero = DOMAIN_CHECKS[name]
    with pytest.raises(DomainError) as nan:
        call(math.nan)
    assert str(nan.value) == message.format(math.nan)
    if takes_negative_zero:
        call(-0.0)
    else:
        with pytest.raises(DomainError) as zero:
            call(-0.0)
        assert str(zero.value) == message.format(-0.0)

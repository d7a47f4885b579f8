import math
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
    compound_bound,
    direction_bounds,
    h2,
    plob_pure_loss,
    tl_rci,
    tl_ree,
)
from qnetcap.channels import (
    FAMILY_AD,
    FAMILY_TL,
    AmplitudeDamping,
    Identity,
    NodeSpec,
    ThermalLoss,
    as_thermal,
)
from qnetcap.errors import DomainError, FamilyError
from qnetcap.oracles import oriented_edge_bounds

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
    assert ad_rci(0.0) == 1.0
    assert ad_rci(1.0) == 0.0
    assert ad_rci(0.5) == pytest.approx(0.27155330316361204, rel=1e-10)
    assert ad_rci(0.1) == pytest.approx(0.7300846722655403, rel=1e-10)
    with pytest.raises(DomainError):
        ad_rci(1.0001)


def test_ad_rci_beats_every_grid_point():
    # the maximized value cannot fall below the objective at any u
    grid = [i / 1000 for i in range(1001)]
    for p in (1e-300, 1e-9, 1e-4, 0.05, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12):
        best = ad_rci(p)
        for u in grid:
            assert best >= h2(u) - h2(u * p) - 1e-12


def test_ad_squashed_values():
    assert ad_squashed(0.0) == pytest.approx(1.0, rel=1e-15)
    assert ad_squashed(1.0) == 0.0
    assert ad_squashed(0.5) == pytest.approx(0.41086955972536865, rel=1e-12)


@given(unit)
@example(p=5e-324)
@settings(max_examples=300, deadline=None)
def test_ad_bound_order(p):
    assert ad_rci(p) <= ad_squashed(p) + 1e-12


@given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=1e-4, max_value=0.2))
@example(p=2.225073858507e-311, dp=0.125)
@settings(max_examples=150, deadline=None)
def test_ad_rci_monotone_in_p(p, dp):
    hi = min(1.0, p + dp)
    assert ad_rci(hi) <= ad_rci(p) + 1e-10


def test_tl_rci_values_and_domain():
    assert tl_rci(0.5, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert tl_rci(0.5, 0.01) == pytest.approx(0.8579823409637992, rel=1e-12)
    assert tl_rci(0.5, 10.0) == 0.0
    with pytest.raises(DomainError):
        tl_rci(1.0, 0.0)
    with pytest.raises(DomainError):
        tl_rci(0.0, 0.0)
    with pytest.raises(DomainError):
        tl_rci(0.5, -0.1)


def test_tl_ree_values():
    assert tl_ree(0.5, 0.01) == pytest.approx(0.8779823409637992, rel=1e-12)
    # entanglement-breaking regime: capacity is exactly zero
    assert tl_ree(0.1, 1.0) == 0.0
    assert tl_ree(0.1, 0.1) == 0.0
    assert tl_ree(0.3, 0.9) == 0.0


@given(etas, nbars)
@settings(max_examples=400)
def test_tl_bound_order(eta, nbar):
    assert tl_rci(eta, nbar) <= tl_ree(eta, nbar) + 1e-12


@given(etas, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=0.5))
@example(eta=0.9999999989999999, nbar=0.75, dn=5.960464477539063e-08)  # x near 1e9
@example(eta=0.5, nbar=5e-324, dn=0.125)  # subnormal x: 1/x overflows
@settings(max_examples=200)
def test_tl_ree_monotone_in_noise(eta, nbar, dn):
    assert tl_ree(eta, nbar + dn) <= tl_ree(eta, nbar) + 1e-12


@given(etas)
@settings(max_examples=200)
def test_pure_loss_bounds_coincide(eta):
    exact = plob_pure_loss(eta)
    assert tl_rci(eta, 0.0) == exact
    assert tl_ree(eta, 0.0) == exact


# Device links may be ideal; the fibre never is, so no compound is an ideal edge.
devices = st.tuples(st.floats(min_value=1e-6, max_value=1.0), st.just(0.0) | nbars)


@given(st.one_of(
    st.tuples(st.just(FAMILY_TL), devices, st.tuples(etas, st.just(0.0) | nbars), devices),
    st.tuples(st.just(FAMILY_AD), unit, unit, unit),
))
@example((FAMILY_TL, (1.0, 0.0), (0.5, 0.0), (0.9, 0.0)))  # pure loss
@example((FAMILY_TL, (1.0, 0.0), (0.1, 0.5), (1.0, 0.0)))  # entanglement breaking: nbar_tot 0.5 >= eta 0.1
@example((FAMILY_TL, (0.9, 0.01), (0.5, 0.002), (0.9, 0.01)))
@example((FAMILY_AD, 0.0, 1.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_direction_bounds_is_both_sides_of_compound_bound(case):
    fam, send, edge, recv = case
    reduced = compound(fam, send, edge, recv)
    expected = (*compound_bound(fam, reduced, "lower"), *compound_bound(fam, reduced, "upper"))
    got = direction_bounds(fam, send, edge, recv)
    assert [x.hex() if isinstance(x, float) else x for x in got] == \
        [x.hex() if isinstance(x, float) else x for x in expected]


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
    assert eb.lower == pytest.approx(tl_rci(*split), rel=1e-12)
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

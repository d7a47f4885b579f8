import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcap.bounds import compound, family_native
from qnetcap.channels import (
    FAMILY_AD,
    FAMILY_TL,
    AmplitudeDamping,
    FibreParams,
    Identity,
    NodeSpec,
    ThermalLoss,
    as_damping,
    as_thermal,
    channel_from_json,
    channel_to_json,
    fibre_transmissivity,
)
from qnetcap.errors import DomainError, FamilyError

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
taus = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
nbars = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def test_channel_param_domains():
    with pytest.raises(DomainError):
        AmplitudeDamping(1.5)
    with pytest.raises(DomainError):
        AmplitudeDamping(float("nan"))
    with pytest.raises(DomainError):
        ThermalLoss(0.0, 0.1)
    with pytest.raises(DomainError):
        ThermalLoss(0.5, -0.1)
    with pytest.raises(DomainError):
        ThermalLoss(1.5)
    with pytest.raises(DomainError):
        FibreParams(-1.0)


@pytest.mark.parametrize("record, change, message", [
    (AmplitudeDamping(0.5), {"p": 1.5}, "damping probability"),
    (ThermalLoss(0.5, 0.1), {"nbar": -0.1}, "thermal photon number"),
    (FibreParams(10.0), {"gamma": math.inf}, "loss rate"),
    (NodeSpec("a"), {"role": "hub"}, "node role"),
])
def test_copy_with_a_change_runs_the_constructor_checks(record, change, message):
    assert record._replace() == record
    with pytest.raises(DomainError, match=message):
        record._replace(**change)


def test_channel_records_keep_their_reprs_and_truth():
    assert repr(AmplitudeDamping(0.5)) == "AmplitudeDamping(p=0.5)"
    assert repr(ThermalLoss(0.5)) == "ThermalLoss(tau=0.5, nbar=0.0)"
    assert repr(Identity()) == "Identity()"
    assert Identity() and Identity() == Identity()


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0])
def test_fibre_loss_rate_must_be_finite_and_positive(gamma):
    # An infinite rate would give a zero-length fibre transmissivity 10^(-inf*0) = nan.
    with pytest.raises(DomainError, match="loss rate must be finite"):
        FibreParams(0.0, gamma=gamma)


IDEAL_TL = (1.0, 0.0)


def test_compose_ad_examples():
    # Survival probabilities eta = 1 - p of the damping chains p = [0.2],
    # [0.1, 0.2], [0.5, 1.0] and [0, 0, 0], ideal devices filling the rest.
    assert compound(FAMILY_AD, 1.0, 0.8, 1.0) == pytest.approx(0.8, rel=1e-15)
    assert compound(FAMILY_AD, 0.9, 0.8, 1.0) == pytest.approx(0.72, rel=1e-15)
    assert compound(FAMILY_AD, 0.5, 0.0, 1.0) == 0.0
    assert compound(FAMILY_AD, 1.0, 1.0, 1.0) == 1.0


def test_compose_ad_domain():
    with pytest.raises(DomainError):
        compound(FAMILY_AD, 0.5, 1.2, 1.0)
    with pytest.raises(DomainError):
        compound(FAMILY_AD, -0.1, 1.0, 1.0)


@given(st.lists(probs, min_size=3, max_size=3))
@settings(max_examples=300)
def test_compose_ad_range_and_order(etas):
    eta = compound(FAMILY_AD, *etas)
    assert 0.0 <= eta <= 1.0
    assert compound(FAMILY_AD, *reversed(etas)) == pytest.approx(eta, abs=1e-15)
    assert eta <= min(etas) + 1e-15


@given(probs, probs, probs)
@settings(max_examples=200)
def test_compose_ad_monotone(send, edge, extra):
    # A lossy receiver in place of an ideal one loses survival probability.
    assert compound(FAMILY_AD, send, edge, extra) <= compound(FAMILY_AD, send, edge, 1.0) + 1e-15


def test_compose_tl_examples():
    assert compound(FAMILY_TL, IDEAL_TL, (0.5, 0.1), IDEAL_TL) == (0.5, pytest.approx(0.1, abs=1e-15))
    assert compound(FAMILY_TL, (0.5, 0.0), (0.4, 0.0), IDEAL_TL) == (pytest.approx(0.2), 0.0)
    tau, nbar = compound(FAMILY_TL, (0.8, 0.1), (0.5, 0.2), IDEAL_TL)
    assert tau == pytest.approx(0.4, rel=1e-15)
    assert nbar == pytest.approx(0.2 + 0.5 * 0.1, rel=1e-12)


def test_compose_tl_domain():
    # The send link goes out of domain: an edge of transmissivity 0 is a dark edge.
    with pytest.raises(DomainError):
        compound(FAMILY_TL, (0.0, 0.1), (0.5, 0.0), IDEAL_TL)
    with pytest.raises(DomainError):
        compound(FAMILY_TL, (1.1, 0.0), (0.5, 0.0), IDEAL_TL)
    with pytest.raises(DomainError):
        compound(FAMILY_TL, (0.5, -0.2), (0.5, 0.0), IDEAL_TL)


@given(st.lists(st.tuples(taus, nbars), min_size=3, max_size=3))
@settings(max_examples=300)
def test_compose_tl_invariants(links):
    tau_tot, nbar_tot = compound(FAMILY_TL, *links)
    assert 0.0 < tau_tot <= 1.0
    assert nbar_tot >= 0.0
    prod = 1.0
    for tau, _ in links:
        prod *= tau
    assert tau_tot == pytest.approx(prod, rel=1e-12)
    # closed form: nbar_tot = sum_j nbar_j * prod_{i>j} tau_i
    expanded = 0.0
    for j, (_, nbar) in enumerate(links):
        scale = 1.0
        for tau, _ in links[j + 1:]:
            scale *= tau
        expanded += nbar * scale
    assert nbar_tot == pytest.approx(expanded, abs=1e-12)


@given(st.tuples(taus, nbars), st.tuples(taus, nbars), st.tuples(taus, nbars))
@settings(max_examples=200)
def test_compose_tl_associative(send, edge, recv):
    # Merging the send device into the fibre first gives the same compound.
    whole = compound(FAMILY_TL, send, edge, recv)
    split = compound(FAMILY_TL, IDEAL_TL, compound(FAMILY_TL, send, edge, IDEAL_TL), recv)
    assert split[0] == pytest.approx(whole[0], rel=1e-12)
    assert split[1] == pytest.approx(whole[1], abs=1e-12)


@given(st.lists(taus, min_size=3, max_size=3))
@settings(max_examples=200)
def test_compose_tl_pure_loss_closure(ts):
    tau_tot, nbar_tot = compound(FAMILY_TL, *[(t, 0.0) for t in ts])
    assert nbar_tot == 0.0
    prod = 1.0
    for t in ts:
        prod *= t
    assert tau_tot == prod


def test_node_split_ad_examples():
    # In survival probabilities: ideal devices are eta = 1, p = 0.1 is eta = 0.9.
    assert compound("ad", 1.0, 0.8, 1.0) == pytest.approx(0.8, rel=1e-15)
    assert compound("ad", 0.9, 1.0, 0.9) == pytest.approx(0.81, rel=1e-12)
    # total internal efficiency 0.1 with a d=100 km fibre at gamma=0.02
    eta_xy = 10.0 ** (-0.02 * 100.0)
    assert compound("ad", 1.0, eta_xy, 0.1) == pytest.approx(0.001, rel=1e-12)


def test_node_split_tl_examples():
    ideal = (1.0, 0.0)
    assert compound("tl", ideal, (0.5, 0.0), ideal) == (0.5, 0.0)
    eta, nbar = compound("tl", ideal, (0.8, 0.002), (0.8, 0.0))
    assert eta == pytest.approx(0.64, rel=1e-12)
    assert nbar == pytest.approx(0.0016, rel=1e-12)
    eta, nbar = compound("tl", (0.95, 0.005), (0.5, 0.002), (0.9, 0.01))
    assert eta == pytest.approx(0.4275, rel=1e-12)
    assert nbar == pytest.approx(0.01 + 0.9 * 0.002 + 0.5 * 0.9 * 0.005, rel=1e-12)


@given(taus, nbars, taus, nbars, taus, nbars)
@settings(max_examples=1000)
def test_node_split_tl_is_compose_tl(reference_compound, tau_s, n_s, eta, n_xy, tau_r, n_r):
    split = compound("tl", (tau_s, n_s), (eta, n_xy), (tau_r, n_r))
    assert split == reference_compound("tl", (tau_s, n_s), (eta, n_xy), (tau_r, n_r))
    eta_tot, nbar_tot = split
    assert eta_tot == pytest.approx(tau_r * tau_s * eta, rel=1e-12)
    assert nbar_tot == pytest.approx(n_r + tau_r * n_xy + eta * tau_r * n_s, abs=1e-12)


@given(probs, probs, probs)
@settings(max_examples=300)
def test_node_split_ad_matches_compose(reference_compound, eta_s, eta_xy, eta_r):
    assert compound("ad", eta_s, eta_xy, eta_r) == reference_compound("ad", eta_s, eta_xy, eta_r)


def test_fibre_channel():
    # A fibre's family-native numbers: survival eta ("ad"), (tau, nbar) ("tl").
    assert as_damping(FibreParams(0.0)) == 1.0
    assert as_damping(FibreParams(50.0)) == pytest.approx(0.1, rel=1e-12)
    tau, nbar = as_thermal(FibreParams(100.0))
    assert tau == pytest.approx(0.01, rel=1e-12)
    assert nbar == 0.002
    # Noiseless fibre is thermal loss with nbar 0, a zero-length one included.
    assert as_thermal(FibreParams(100.0, nbar_B=0.0)) == (tau, 0.0)
    assert as_thermal(FibreParams(0.0, nbar_B=0.0)) == (1.0, 0.0)
    with pytest.raises(FamilyError):
        family_native("qubit")


def test_fibre_transmissivity_is_the_one_loss_law():
    assert fibre_transmissivity(0.02, 100.0) == 10.0 ** -2.0
    assert fibre_transmissivity(0.02, 0.0) == 1.0
    for d in (0.0, 3.7, 150.0, 1e5):
        assert FibreParams(d, gamma=0.03).transmissivity == fibre_transmissivity(0.03, d)
        # A damping fibre's survival probability is its transmissivity, unrounded.
        assert as_damping(FibreParams(d, gamma=0.03)) == fibre_transmissivity(0.03, d)
    assert not hasattr(FibreParams(1.0), "damping")


def test_channel_json_round_trip():
    for ch in (AmplitudeDamping(0.3), ThermalLoss(0.7, 0.02), ThermalLoss(0.4), Identity()):
        assert channel_from_json(channel_to_json(ch)) == ch
    # "pl" (pure loss) still parses, as thermal loss with no added photons.
    assert channel_from_json({"kind": "pl", "eta": 0.4}) == ThermalLoss(0.4, 0.0)
    assert channel_to_json(AmplitudeDamping(0.3)) == {"kind": "ad", "p": 0.3}
    assert channel_to_json(Identity()) == {"kind": "id"}
    with pytest.raises(DomainError):
        channel_from_json({"kind": "nope"})
    with pytest.raises(DomainError):
        channel_from_json({"p": 0.1})


def test_node_spec_role():
    with pytest.raises(DomainError):
        NodeSpec("x", role="router")

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcap.bounds import compound
from qnetcap.channels import (
    AmplitudeDamping,
    FibreParams,
    Identity,
    NodeSpec,
    ThermalLoss,
    channel_from_json,
    channel_to_json,
    compose_ad,
    compose_tl,
    fibre_channel,
    fibre_transmissivity,
)
from qnetcap.errors import DomainError, EmptyCompoundError, FamilyError

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


def test_compose_ad_examples():
    assert compose_ad([0.2]) == pytest.approx(0.2, rel=1e-15)
    assert compose_ad([0.1, 0.2]) == pytest.approx(0.28, rel=1e-15)
    assert compose_ad([0.5, 1.0]) == 1.0
    assert compose_ad([0.0, 0.0, 0.0]) == 0.0


def test_compose_ad_empty():
    with pytest.raises(EmptyCompoundError):
        compose_ad([])


def test_compose_ad_domain():
    with pytest.raises(DomainError):
        compose_ad([0.5, 1.2])
    with pytest.raises(DomainError):
        compose_ad([-0.1])


@given(st.lists(probs, min_size=1, max_size=6))
@settings(max_examples=300)
def test_compose_ad_range_and_order(ps):
    p = compose_ad(ps)
    assert 0.0 <= p <= 1.0
    assert compose_ad(list(reversed(ps))) == pytest.approx(p, abs=1e-15)
    assert p >= max(ps) - 1e-15


@given(st.lists(probs, min_size=1, max_size=4), probs)
@settings(max_examples=200)
def test_compose_ad_monotone(ps, extra):
    assert compose_ad(ps + [extra]) >= compose_ad(ps) - 1e-15


def test_compose_tl_examples():
    assert compose_tl([(0.5, 0.1)]) == (0.5, pytest.approx(0.1, abs=1e-15))
    assert compose_tl([(0.5, 0.0), (0.4, 0.0)]) == (pytest.approx(0.2), 0.0)
    tau, nbar = compose_tl([(0.8, 0.1), (0.5, 0.2)])
    assert tau == pytest.approx(0.4, rel=1e-15)
    assert nbar == pytest.approx(0.2 + 0.5 * 0.1, rel=1e-12)


def test_compose_tl_empty_and_domain():
    with pytest.raises(EmptyCompoundError):
        compose_tl([])
    with pytest.raises(DomainError):
        compose_tl([(0.0, 0.1)])
    with pytest.raises(DomainError):
        compose_tl([(1.1, 0.0)])
    with pytest.raises(DomainError):
        compose_tl([(0.5, -0.2)])


@given(st.lists(st.tuples(taus, nbars), min_size=1, max_size=6))
@settings(max_examples=300)
def test_compose_tl_invariants(links):
    tau_tot, nbar_tot = compose_tl(links)
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


@given(st.lists(st.tuples(taus, nbars), min_size=2, max_size=6))
@settings(max_examples=200)
def test_compose_tl_associative(links):
    whole = compose_tl(links)
    prefix = compose_tl(links[:2])
    split = compose_tl([prefix] + links[2:])
    assert split[0] == pytest.approx(whole[0], rel=1e-12)
    assert split[1] == pytest.approx(whole[1], abs=1e-12)


@given(st.lists(taus, min_size=1, max_size=6))
@settings(max_examples=200)
def test_compose_tl_pure_loss_closure(ts):
    tau_tot, nbar_tot = compose_tl([(t, 0.0) for t in ts])
    assert nbar_tot == 0.0
    prod = 1.0
    for t in ts:
        prod *= t
    assert tau_tot == prod


def test_node_split_ad_examples():
    assert compound("ad", 0.0, 0.2, 0.0) == pytest.approx(0.2, rel=1e-15)
    assert compound("ad", 0.1, 0.0, 0.1) == pytest.approx(0.19, rel=1e-12)
    # total internal efficiency 0.1 with a d=100 km fibre at gamma=0.02
    p_xy = 1.0 - 10.0 ** (-0.02 * 100.0)
    assert compound("ad", 0.0, p_xy, 0.9) == pytest.approx(0.999, rel=1e-12)


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
def test_node_split_tl_is_compose_tl(tau_s, n_s, eta, n_xy, tau_r, n_r):
    split = compound("tl", (tau_s, n_s), (eta, n_xy), (tau_r, n_r))
    assert split == compose_tl([(tau_s, n_s), (eta, n_xy), (tau_r, n_r)])
    eta_tot, nbar_tot = split
    assert eta_tot == pytest.approx(tau_r * tau_s * eta, rel=1e-12)
    assert nbar_tot == pytest.approx(n_r + tau_r * n_xy + eta * tau_r * n_s, abs=1e-12)


@given(probs, probs, probs)
@settings(max_examples=300)
def test_node_split_ad_matches_compose(p_s, p_xy, p_r):
    assert compound("ad", p_s, p_xy, p_r) == compose_ad([p_s, p_xy, p_r])


def test_fibre_channel():
    assert fibre_channel(FibreParams(0.0), "ad") == AmplitudeDamping(0.0)
    ch = fibre_channel(FibreParams(50.0), "ad")
    assert ch.p == pytest.approx(0.9, rel=1e-12)
    th = fibre_channel(FibreParams(100.0), "tl")
    assert th.tau == pytest.approx(0.01, rel=1e-12)
    assert th.nbar == 0.002
    # Noiseless fibre is thermal loss with nbar 0, a zero-length one included.
    assert fibre_channel(FibreParams(100.0, nbar_B=0.0), "tl") == ThermalLoss(th.tau, 0.0)
    assert fibre_channel(FibreParams(0.0, nbar_B=0.0), "tl") == ThermalLoss(1.0, 0.0)
    with pytest.raises(FamilyError):
        fibre_channel(FibreParams(10.0), "qubit")


def test_fibre_transmissivity_is_the_one_loss_law():
    assert fibre_transmissivity(0.02, 100.0) == 10.0 ** -2.0
    assert fibre_transmissivity(0.02, 0.0) == 1.0
    for d in (0.0, 3.7, 150.0, 1e5):
        assert FibreParams(d, gamma=0.03).transmissivity == fibre_transmissivity(0.03, d)
        assert FibreParams(d, gamma=0.03).damping == 1.0 - fibre_transmissivity(0.03, d)


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

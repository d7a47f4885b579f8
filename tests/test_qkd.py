import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcap.errors import DomainError
from qnetcap.qkd import (
    PLANCK,
    PRESETS,
    SPEED_OF_LIGHT,
    QkdSetup,
    from_preset,
    receiver_noise,
    theta_el,
    theta_ph,
    with_scheme,
)

etas = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def test_constants_pinned():
    assert SPEED_OF_LIGHT == 299792458.0
    assert PLANCK == 6.62607015e-34


def test_theta_ph_defaults():
    setup = QkdSetup()
    # pi * (mu - 1) * linewidth / clock with mu=10, 1600 Hz, 5 MHz
    assert theta_ph(setup) == pytest.approx(9.05e-3, rel=5e-3)
    assert theta_ph(setup) == pytest.approx(0.009047786842338604, rel=1e-13)


def test_theta_ph_degenerate_and_linear():
    flat = QkdSetup()._replace(mu=1.0)
    assert theta_ph(flat) == 0.0
    base = QkdSetup()
    doubled = base._replace(linewidth=2 * base.linewidth)
    assert theta_ph(doubled) == pytest.approx(2 * theta_ph(base), rel=1e-14)


def test_theta_el_defaults():
    setup = QkdSetup()  # heterodyne by default (nu_det=2)
    value = theta_el(setup, setup.p_lo)
    assert value == pytest.approx(1.45e-3, rel=5e-3)
    assert value == pytest.approx(0.0014498255714523003, rel=1e-13)
    homodyne = setup._replace(nu_det=1)
    assert theta_el(homodyne, setup.p_lo) == pytest.approx(value / 2, rel=1e-14)
    assert theta_el(setup, setup.p_lo / 2) == pytest.approx(2 * value, rel=1e-14)


def test_theta_el_rejects_bad_power():
    with pytest.raises(DomainError):
        theta_el(QkdSetup(), 0.0)
    with pytest.raises(DomainError):
        theta_el(QkdSetup(), -1.0)


def test_receiver_noise_llo_at_unit_eta():
    setup = QkdSetup(scheme="llo")
    n = receiver_noise(setup, 1.0)
    expected = 0.8 * theta_ph(setup) + theta_el(setup, setup.p_lo)
    assert n == pytest.approx(expected, rel=1e-14)
    assert n == pytest.approx(8.69e-3, rel=5e-3)


def test_receiver_noise_tlo_matches_scaled_power():
    setup = QkdSetup(scheme="tlo")
    eta = 0.37
    assert receiver_noise(setup, eta) == pytest.approx(
        theta_el(setup, eta * setup.tau_eff * setup.p_lo), rel=1e-14
    )


def test_receiver_noise_eta_domain():
    # Where no light arrives a local LO adds its full-power electronic noise, and a
    # transmitted LO, whose detected power is 0, adds inf.
    llo, tlo = QkdSetup(scheme="llo"), QkdSetup(scheme="tlo")
    for eta in (0.0, -0.0):
        assert receiver_noise(llo, eta) == theta_el(llo, llo.p_lo)
        assert receiver_noise(tlo, eta) == math.inf
    for eta in (math.nan, 1.1, math.inf, -5e-324):
        with pytest.raises(DomainError) as refused:
            receiver_noise(llo, eta)
        assert str(refused.value) == f"channel transmissivity must lie in [0, 1], got {eta}"


@pytest.mark.parametrize("eta", [1e-200, 1e-300, 1e-305, 1e-310, 5e-324])
def test_tlo_noise_is_inf_exactly_where_the_detected_lo_power_underflows(eta):
    tlo = QkdSetup(scheme="tlo")
    denominator = 2.0 * PLANCK * (SPEED_OF_LIGHT / tlo.wavelength) * (eta * tlo.tau_eff * tlo.p_lo)
    noise = receiver_noise(tlo, eta)
    assert noise == (math.inf if denominator == 0.0 else theta_el(tlo, eta * tlo.tau_eff * tlo.p_lo))
    assert math.isfinite(receiver_noise(with_scheme(tlo, "llo"), eta))


@pytest.mark.parametrize("broken", [{"wavelength": 1e300}, {"nep": 1e200}])
def test_a_tlo_setup_that_fails_at_full_power_is_refused_at_every_eta(broken):
    setup = QkdSetup(scheme="tlo", **broken)
    for eta in (1.0, 0.5, 1e-310, 0.0):
        with pytest.raises(DomainError, match="electronic noise"):
            receiver_noise(setup, eta)


@given(etas, etas)
@settings(max_examples=200)
def test_scheme_monotonicity(e1, e2):
    lo, hi = sorted((e1, e2))
    llo = QkdSetup(scheme="llo")
    tlo = QkdSetup(scheme="tlo")
    assert receiver_noise(llo, lo) <= receiver_noise(llo, hi) + 1e-18
    assert receiver_noise(tlo, lo) >= receiver_noise(tlo, hi) - 1e-18
    cap = llo.tau_eff * theta_ph(llo) + theta_el(llo, llo.p_lo)
    assert receiver_noise(llo, hi) <= cap + 1e-18


def test_noise_knobs():
    quiet = QkdSetup(scheme="llo", nep=0.0)
    assert receiver_noise(quiet, 0.5) == pytest.approx(0.5 * 0.8 * theta_ph(quiet), rel=1e-14)
    narrow = QkdSetup(scheme="llo", linewidth=0.0)
    assert receiver_noise(narrow, 0.5) == pytest.approx(
        theta_el(narrow, narrow.p_lo), rel=1e-14
    )


def test_tlo_llo_crossover_exists():
    llo = QkdSetup(scheme="llo")
    tlo = QkdSetup(scheme="tlo")
    assert receiver_noise(tlo, 1.0) < receiver_noise(llo, 1.0)
    assert receiver_noise(tlo, 0.01) > receiver_noise(llo, 0.01)


def test_presets():
    assert set(PRESETS) == {
        "table1-homodyne-llo",
        "table1-homodyne-tlo",
        "table1-heterodyne-llo",
        "table1-heterodyne-tlo",
    }
    het = from_preset("table1-heterodyne-llo")
    assert het.nu_det == 2 and het.scheme == "llo"
    hom = from_preset("table1-homodyne-tlo")
    assert hom.nu_det == 1 and hom.scheme == "tlo"
    with pytest.raises(DomainError):
        from_preset("table2-anything")


def test_with_scheme():
    base = from_preset("table1-heterodyne-llo")
    flipped = with_scheme(base, "tlo")
    assert flipped.scheme == "tlo"
    assert flipped.nu_det == base.nu_det
    with pytest.raises(DomainError):
        with_scheme(base, "mlo")


def test_setup_validation():
    with pytest.raises(DomainError):
        QkdSetup(scheme="xlo")
    with pytest.raises(DomainError):
        QkdSetup(nu_det=3)
    with pytest.raises(DomainError):
        QkdSetup(tau_eff=0.0)
    with pytest.raises(DomainError):
        QkdSetup(wavelength=-1.0)
    with pytest.raises(DomainError):
        QkdSetup(mu=0.5)

"""Acceptance gate: one test per numbered shipping criterion.

Each test pins the quantitative anchor and, where one is stated, the wall-time
budget. Anchors marked as derived were recomputed through the independent
oracles in qnetcap.oracles / qnetcap.selfcheck before being frozen here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qnetcap.bounds import ad_rci, ad_squashed, compound, h2, tl_bounds
from qnetcap.channels import AmplitudeDamping
from qnetcap.oracles import ad_rci_at_u, verify_theorem2
from qnetcap.qkd import from_preset, theta_el, theta_ph, with_scheme
from qnetcap.selfcheck import check_ad_compounds, check_tl_compounds, routing_errors
from qnetcap.wrn import (
    CELL_MANHATTAN,
    CELL_TRIANGULAR,
    WrnSpec,
    delta,
    min_nodal_density,
    omega,
    solve_threshold,
    threshold_report,
)

TARGET = 1e-2


def man_spec(**kw):
    base = dict(cell_type=CELL_MANHATTAN, radius=2, edge_length_km=10.0, family="tl")
    base.update(kw)
    return WrnSpec(**base)


def tri_spec(**kw):
    base = dict(cell_type=CELL_TRIANGULAR, radius=2, edge_length_km=10.0, family="ad")
    base.update(kw)
    return WrnSpec(**base)


def test_criterion_1_pure_loss_k8_max_edge_length():
    t0 = time.perf_counter()
    bulk, _ = threshold_report(man_spec(nbar_B=0.0), TARGET, "edgeLength")
    elapsed = time.perf_counter() - t0
    # pure loss: lower and upper bounds coincide, so the bracket is a point
    assert bulk.from_lower_fn == bulk.from_upper_fn
    assert bulk.from_lower_fn == pytest.approx(183.0, abs=2.0)
    # same number from a hand-transcribed bound, bypassing the channel layer
    direct = solve_threshold(
        lambda d: -math.log2(1.0 - 10.0 ** (-0.02 * d)), TARGET, 32.0
    )
    assert bulk.from_lower_fn == pytest.approx(direct, rel=1e-9)
    assert elapsed < 1.0


def test_criterion_2_thermal_k8_bracket():
    t0 = time.perf_counter()
    bulk, _ = threshold_report(man_spec(), TARGET, "edgeLength")
    elapsed = time.perf_counter() - t0
    assert bulk.from_lower_fn == pytest.approx(91.0, abs=2.0)
    assert bulk.from_upper_fn == pytest.approx(126.0, abs=2.0)
    assert elapsed < 1.0


def test_criterion_3_damping_k6_lossy_repeaters():
    t0 = time.perf_counter()
    spec = tri_spec(recv=AmplitudeDamping(0.9))
    bulk, _ = threshold_report(spec, TARGET, "edgeLength")
    elapsed = time.perf_counter() - t0
    lo, hi = bulk.bracket
    assert lo <= 100.0 * 1.1
    assert hi >= 100.0 * 0.9
    assert 90.0 <= lo <= hi <= 110.0
    rho = min_nodal_density(0.5 * (lo + hi), CELL_TRIANGULAR).rho_min
    assert 1.0 / 1.3 <= rho / 1e-4 <= 1.3
    assert elapsed < 5.0


def test_criterion_4_damping_k6_ideal_bracket():
    bulk, _ = threshold_report(tri_spec(), 0.1, "edgeLength")
    assert bulk.from_lower_fn == pytest.approx(93.0, abs=2.0)
    assert bulk.from_upper_fn == pytest.approx(107.0, abs=2.0)


def test_criterion_5_compound_channels_match_simulation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    assert check_ad_compounds(rng, 200) <= 1e-12
    assert check_tl_compounds(rng, 200) <= 1e-12

    def xi_chain(links):
        tau_tot, xi = 1.0, 0.0
        for tau, nbar in links:
            eps = nbar + 0.5 * abs(1.0 - tau)
            xi = tau * xi + eps
            tau_tot *= tau
        return tau_tot, xi - 0.5 * abs(1.0 - tau_tot)

    for _ in range(200):
        tau_s, eta, tau_r = rng.uniform(0.05, 1.0, 3)
        nbar_s, nbar_xy, nbar_r = rng.uniform(1e-6, 0.5, 3)
        split = compound("tl", (tau_s, nbar_s), (eta, nbar_xy), (tau_r, nbar_r))
        assert split == xi_chain(
            [(tau_s, nbar_s), (eta, nbar_xy), (tau_r, nbar_r)]
        )
    assert time.perf_counter() - t0 < 10.0


def test_criterion_6_routing_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    flow_err, widest_err = routing_errors(rng, 200, max_nodes=10)
    assert flow_err <= 1e-9
    assert widest_err == 0.0
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_uniform_lattice_flooding_is_k_times_c():
    t0 = time.perf_counter()
    for cell, fam in ((CELL_TRIANGULAR, "ad"), (CELL_MANHATTAN, "tl")):
        for radius in (2, 3, 4):
            spec = WrnSpec(
                cell_type=cell, radius=radius, edge_length_km=5.0, family=fam
            )
            assert verify_theorem2(spec, 0.37, tol=1e-9)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_8_bound_ordering_and_constants():
    for p in np.linspace(0.0, 1.0, 10_000):
        assert ad_rci(1.0 - p) <= ad_squashed(1.0 - p)
    for eta in np.linspace(0.01, 0.99, 100):
        for nbar in np.linspace(0.0, 1.5, 100):
            lower, _, upper, _ = tl_bounds(eta, nbar)
            assert lower <= upper
    for u in np.linspace(0.01, 0.99, 50):
        for p in np.linspace(0.01, 0.99, 50):
            assert abs(ad_rci_at_u(p, u) - (h2(u) - h2(u * p))) <= 1e-9
    assert delta(6, ((2, 2, 2, 2, 2, 2),)) == 18
    assert delta(8, ((2, 2, 2, 2, 4, 4, 4, 4),)) == 32
    assert Fraction(*omega(6, 18)) == Fraction(90, 13)
    assert Fraction(*omega(8, 32)) == Fraction(224, 25)


def test_criterion_9_receiver_noise_and_lo_scheme_gap():
    llo = from_preset("table1-heterodyne-llo")
    assert f"{theta_ph(llo):.3g}" == "0.00905"
    assert f"{theta_el(llo, llo.p_lo):.3g}" == "0.00145"

    tlo = with_scheme(llo, "tlo")
    spec = man_spec()
    bulk_llo, _ = threshold_report(spec, TARGET, "edgeLength", qkd_setup=llo)
    bulk_tlo, _ = threshold_report(spec, TARGET, "edgeLength", qkd_setup=tlo)
    gap = bulk_llo.from_lower_fn - bulk_tlo.from_lower_fn
    assert gap >= 29.0

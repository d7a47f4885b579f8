"""The oracles against their definitions and against numpy, kept here as the
independent cross-check of the oracles' closed-form 2x2 linear algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcap.bounds import h2
from qnetcap.errors import DomainError, KrausError
from qnetcap.oracles import (
    QubitChannel,
    ad_channel,
    ad_rci_at_u,
    apply_channel,
    check_covariance,
    eigvalsh2,
    gaussian_propagate,
    von_neumann_entropy,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_qubit_channel_rejects_non_cptp():
    half = np.eye(2, dtype=complex) * 0.5
    with pytest.raises(KrausError):
        QubitChannel((half,))
    with pytest.raises(KrausError):
        QubitChannel(())
    with pytest.raises(KrausError):
        QubitChannel((np.eye(3, dtype=complex),))


def test_qubit_channel_is_frozen():
    channel = ad_channel(0.25)
    kraus = channel.kraus
    with pytest.raises(AttributeError):
        channel.kraus = ()
    with pytest.raises(AttributeError):
        del channel.kraus
    assert channel.kraus is kraus


def test_apply_channel_damps_excited_state():
    excited = np.diag([0.0, 1.0]).astype(complex)
    rho = apply_channel(ad_channel(0.25), excited)
    assert rho[0][0].real == pytest.approx(0.25, abs=1e-14)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_entropy_basics():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.eye(2) * 0.5) == pytest.approx(1.0, abs=1e-12)
    # A pure state off the computational basis, |+><+|, has zero entropy.
    assert von_neumann_entropy([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.0, abs=1e-12)
    # Every state an oracle takes the entropy of is a qubit's.
    with pytest.raises(DomainError):
        von_neumann_entropy(np.eye(4) * 0.25)


@given(entries, entries, entries, entries)
@settings(max_examples=500, deadline=None)
def test_eigvalsh2_matches_numpy(a, d, re, im):
    m = np.array([[a, complex(re, im)], [complex(re, -im), d]])
    scale = max(1.0, float(np.abs(m).max()))
    for ours, ref in zip(eigvalsh2(m), np.linalg.eigvalsh(m)):
        assert abs(ours - ref) <= 1e-12 * scale


def _numpy_ad_rci_at_u(p, u):
    """The 4x4 density-matrix route: damp the second qubit of the purification
    sqrt(1-u)|00> + sqrt(u)|11>, then S(Tr_B rho) - S(rho) from numpy spectra."""
    psi = np.array([math.sqrt(1.0 - u), 0.0, 0.0, math.sqrt(u)], dtype=complex)
    kraus = (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]]), np.array([[0.0, math.sqrt(p)], [0.0, 0.0]]))
    rho = sum(np.kron(np.eye(2), k) @ np.outer(psi, psi) @ np.kron(np.eye(2), k).T for k in kraus)

    def entropy(r):
        lam = np.linalg.eigvalsh(r)
        lam = lam[lam > 1e-14]
        return float(-(lam * np.log2(lam)).sum())

    return entropy(np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))) - entropy(rho)


def test_ad_rci_at_u_matches_numpy_density_matrices():
    grid = np.linspace(0.0, 1.0, 41)
    for p in grid:
        for u in grid:
            assert abs(ad_rci_at_u(p, u) - _numpy_ad_rci_at_u(p, u)) <= 1e-12


@given(probs, probs, probs, st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_apply_channel_matches_numpy(p, pop, re, im):
    coherence = complex(re, im) * math.sqrt(pop * (1.0 - pop))
    rho = np.array([[1.0 - pop, coherence], [coherence.conjugate(), pop]])
    ref = sum(k @ rho @ k.conj().T for k in map(np.array, ad_channel(p).kraus))
    assert np.abs(np.array(apply_channel(ad_channel(p), rho)) - ref).max() <= 1e-14


@given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=0.0, max_value=2.0)),
                max_size=6),
       st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=-0.2, max_value=0.2))
@settings(max_examples=200, deadline=None)
def test_gaussian_propagate_matches_numpy(links, diagonal, off):
    v = np.array([[diagonal, off], [off, diagonal + 0.1]])
    ref = v.copy()
    for tau, nbar in links:
        ref = tau * ref + (nbar + 0.5 * abs(1.0 - tau)) * np.eye(2)
    assert np.array_equal(np.array(gaussian_propagate(v, links)), ref)


@given(probs, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_ad_rci_at_u_matches_binary_entropies(p, u):
    oracle = ad_rci_at_u(p, u)
    assert oracle == pytest.approx(h2(u) - h2(u * p), abs=1e-9)


def test_ad_rci_at_u_domain():
    with pytest.raises(DomainError):
        ad_rci_at_u(0.5, 1.5)
    with pytest.raises(DomainError):
        ad_rci_at_u(1.5, 0.5)


def test_check_covariance():
    check_covariance(np.eye(2) * 0.5)
    with pytest.raises(DomainError):
        check_covariance(np.eye(3))
    with pytest.raises(DomainError):
        check_covariance(np.array([[0.5, 0.1], [-0.1, 0.5]]))
    with pytest.raises(DomainError):
        check_covariance(np.eye(2) * 0.1)  # det < 1/4


def test_gaussian_propagate_steps():
    v0 = np.eye(2) * 0.5
    out = gaussian_propagate(v0, [])
    assert np.array_equal(out, v0)
    assert out is not v0
    one = gaussian_propagate(v0, [(0.5, 0.1)])
    assert np.allclose(one, np.eye(2) * (0.5 * 0.5 + 0.1 + 0.25), atol=1e-14)
    with pytest.raises(DomainError):
        gaussian_propagate(v0, [(1.5, 0.0)])
    with pytest.raises(DomainError):
        gaussian_propagate(v0, [(0.5, -0.1)])


def test_gaussian_propagate_identity_link():
    v0 = np.array([[0.7, 0.1], [0.1, 0.6]])
    out = gaussian_propagate(v0, [(1.0, 0.0)])
    assert np.allclose(out, v0, atol=1e-15)

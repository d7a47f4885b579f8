"""Randomized equivalence batteries pitting fast paths against slow oracles.

Compound-channel reductions are replayed as explicit Kraus-operator or
Gaussian covariance simulations; the flow solver is replayed as exhaustive
cut and path enumeration on small random graphs. Each battery returns the
worst deviation it saw, so callers pick their own tolerance.
"""

from __future__ import annotations

import numpy as np

from .channels import compose_ad, compose_tl
from .network import BoundedGraph
from .oracles import (
    ad_channel,
    apply_channel,
    bounded_from_values,
    brute_force_min_cut,
    brute_force_widest_path,
    gaussian_propagate,
)
from .routing import max_flow, widest_path

EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def random_ad_compound(rng: np.random.Generator, max_links: int = 5) -> list[float]:
    count = int(rng.integers(1, max_links + 1))
    return [float(p) for p in rng.uniform(0.0, 1.0, size=count)]


def random_tl_compound(rng: np.random.Generator, max_links: int = 5) -> list[tuple[float, float]]:
    count = int(rng.integers(1, max_links + 1))
    taus = rng.uniform(0.05, 1.0, size=count)
    nbars = rng.uniform(0.0, 0.5, size=count)
    return [(float(t), float(n)) for t, n in zip(taus, nbars)]


def ad_compound_error(ps: list[float]) -> float:
    """|compose_ad - Kraus simulation|: the damped population of |1> is p_tot."""
    rho = EXCITED.copy()
    for p in ps:
        rho = apply_channel(ad_channel(p), rho)
    return abs(compose_ad(ps) - rho[0, 0].real)


def tl_compound_error(links: list[tuple[float, float]], nbar_in: float = 0.0) -> float:
    """Max entry deviation between stepwise and one-shot covariance propagation."""
    v0 = (nbar_in + 0.5) * np.eye(2)
    stepwise = gaussian_propagate(v0, links)
    one_shot = gaussian_propagate(v0, [compose_tl(links)])
    return float(np.max(np.abs(stepwise - one_shot)))


def check_ad_compounds(rng: np.random.Generator, count: int) -> float:
    return max(ad_compound_error(random_ad_compound(rng)) for _ in range(count))


def check_tl_compounds(rng: np.random.Generator, count: int) -> float:
    worst = 0.0
    for _ in range(count):
        links = random_tl_compound(rng)
        nbar_in = float(rng.uniform(0.0, 1.0))
        worst = max(worst, tl_compound_error(links, nbar_in))
    return worst


def random_bounded_graph(rng: np.random.Generator, max_nodes: int = 10) -> BoundedGraph:
    """Connected graph with uniform [0,1] edge values and two random users."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    rows = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        rows.append((names[j], names[i], float(rng.uniform(0.0, 1.0))))
        seen.add((j, i))
    extra = int(rng.integers(0, n * (n - 1) // 2 - (n - 1) + 1))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) in seen:
            continue
        seen.add((i, j))
        rows.append((names[i], names[j], float(rng.uniform(0.0, 1.0))))
    a, b = rng.choice(n, size=2, replace=False).tolist()
    return bounded_from_values(rows, (names[a], names[b]))


def routing_errors(rng: np.random.Generator, count: int, max_nodes: int = 10) -> tuple[float, float]:
    """(worst max-flow vs cut-enumeration error, worst widest-path mismatch).

    The widest-path comparison is exact, so any non-zero second entry is a bug.
    """
    worst_flow = 0.0
    worst_widest = 0.0
    for _ in range(count):
        bg = random_bounded_graph(rng, max_nodes)
        flow = max_flow(bg, "lower").value
        cut, _ = brute_force_min_cut(bg, "lower")
        worst_flow = max(worst_flow, abs(flow - cut))
        fast = widest_path(bg, "lower").value
        slow = brute_force_widest_path(bg, "lower")
        worst_widest = max(worst_widest, abs(fast - slow))
    return worst_flow, worst_widest


def run(seed: int, count: int) -> list[tuple[str, float, float]]:
    """(battery, worst deviation, tolerance) for each battery, all drawn from one seeded RNG."""
    rng = np.random.default_rng(seed)
    ad_err = check_ad_compounds(rng, count)
    tl_err = check_tl_compounds(rng, count)
    flow_err, widest_err = routing_errors(rng, count, max_nodes=8)
    return [
        ("ad-compound-vs-kraus", ad_err, 1e-12),
        ("tl-compound-vs-gaussian", tl_err, 1e-12),
        ("max-flow-vs-cut-enumeration", flow_err, 1e-9),
        ("widest-path-vs-enumeration", widest_err, 0.0),
    ]

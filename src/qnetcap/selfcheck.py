"""Randomized equivalence batteries pitting fast paths against slow oracles.

``bounds.compounds``, the reduction every bound goes through, reduces random
(send, edge, recv) chains in one call, which are replayed as explicit
Kraus-operator or Gaussian covariance simulations; the flow solver is
replayed as exhaustive cut and path enumeration on small random graphs, and
its results on lattices of radius 2 to 6 must carry their O(E) certificates.
Each battery returns the worst deviation it saw, so callers pick their own
tolerance. Every draw is one ``rng.random()`` call, so a ``random.Random``
and a numpy ``Generator`` both serve as ``rng``.
"""

from __future__ import annotations

import random

from .bounds import compounds
from .channels import FAMILY_AD, FAMILY_TL
from .network import annotate_uniform
from .oracles import (
    ad_channel,
    apply_channel,
    bounded_from_values,
    brute_force_min_cut,
    brute_force_widest_path,
    gaussian_propagate,
    max_flow_certificate_error,
    widest_path_certificate_error,
)
from .routing import BoundedGraph, max_flow, widest_path
from .wrn import WrnSpec, generate

EXCITED = ((0.0, 0.0), (0.0, 1.0))


def _below(rng: random.Random, n: int) -> int:
    """A uniform integer in [0, n)."""
    return int(rng.random() * n)


def _pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Two distinct uniform integers in [0, n)."""
    i, j = _below(rng, n), _below(rng, n - 1)
    return i, j + (j >= i)


def random_ad_compound(rng: random.Random) -> list[float]:
    """Damping probabilities of a (send, edge, recv) chain, each uniform on [0, 1)."""
    return [rng.random() for _ in range(3)]


def random_tl_compound(rng: random.Random) -> list[tuple[float, float]]:
    """(send, edge, recv) links with tau uniform on [0.05, 1) and nbar uniform on [0, 0.5)."""
    return [(0.05 + 0.95 * rng.random(), 0.5 * rng.random()) for _ in range(3)]


def ad_compound_error(ps: list[float], eta_tot: float) -> float:
    """|eta_tot - Kraus simulation| of the chain ``ps``: the surviving population of |1> is eta_tot."""
    rho = EXCITED
    for p in ps:
        rho = apply_channel(ad_channel(p), rho)
    return abs(eta_tot - rho[1][1].real)


def tl_compound_error(links: list[tuple[float, float]], reduced: tuple[float, float], nbar_in: float = 0.0) -> float:
    """Max entry deviation between stepwise propagation through ``links`` and one through ``reduced``."""
    v0 = ((nbar_in + 0.5, 0.0), (0.0, nbar_in + 0.5))
    stepwise = gaussian_propagate(v0, links)
    one_shot = gaussian_propagate(v0, [reduced])
    return max(abs(x - y) for row, other in zip(stepwise, one_shot) for x, y in zip(row, other))


def check_ad_compounds(rng: random.Random, count: int) -> float:
    chains = [random_ad_compound(rng) for _ in range(count)]
    return max(map(ad_compound_error, chains, compounds(FAMILY_AD, [[1.0 - p for p in ps] for ps in chains])))


def check_tl_compounds(rng: random.Random, count: int) -> float:
    draws = [(random_tl_compound(rng), rng.random()) for _ in range(count)]
    reduced = compounds(FAMILY_TL, [links for links, _ in draws])
    return max((tl_compound_error(links, r, nbar_in) for (links, nbar_in), r in zip(draws, reduced)), default=0.0)


def random_bounded_graph(rng: random.Random, max_nodes: int = 10) -> BoundedGraph:
    """Connected graph with uniform [0,1] edge values and two random users."""
    n = 2 + _below(rng, max_nodes - 1)
    names = [f"v{i}" for i in range(n)]
    rows = []
    seen = set()
    for i in range(1, n):
        j = _below(rng, i)
        rows.append((names[j], names[i], rng.random()))
        seen.add((j, i))
    for _ in range(_below(rng, n * (n - 1) // 2 - (n - 1) + 1)):
        i, j = sorted(_pair(rng, n))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        rows.append((names[i], names[j], rng.random()))
    a, b = _pair(rng, n)
    return bounded_from_values(rows, (names[a], names[b]))


def routing_errors(rng: random.Random, count: int, max_nodes: int = 10) -> tuple[float, float]:
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


def certificate_errors(rng: random.Random, count: int) -> tuple[float, float]:
    """(worst max-flow certificate error, worst widest-path one) over lattices of random cell,
    radius 2 to 6 and edge values uniform on [0, 1)."""
    worst_flow = worst_widest = 0.0
    for _ in range(count):
        cell = ("triangular6", "manhattan8")[_below(rng, 2)]
        graph = generate(WrnSpec(cell, 2 + _below(rng, 5), 1.0, "tl"))
        values = tuple(rng.random() for _ in graph.a)
        bg = annotate_uniform(graph, 0.0)._replace(lower=values, upper=values)
        worst_flow = max(worst_flow, max_flow_certificate_error(bg, "lower", max_flow(bg, "lower")))
        worst_widest = max(worst_widest, widest_path_certificate_error(bg, "lower", widest_path(bg, "lower")))
    return worst_flow, worst_widest


def run(seed: int, count: int) -> list[tuple[str, float, float]]:
    """(battery, worst deviation, tolerance) for each battery, all drawn from one seeded RNG."""
    rng = random.Random(seed)
    ad_err = check_ad_compounds(rng, count)
    tl_err = check_tl_compounds(rng, count)
    flow_err, widest_err = routing_errors(rng, count, max_nodes=8)
    flow_cert, widest_cert = certificate_errors(rng, count)
    return [
        ("ad-compound-vs-kraus", ad_err, 1e-12),
        ("tl-compound-vs-gaussian", tl_err, 1e-12),
        ("max-flow-vs-cut-enumeration", flow_err, 1e-9),
        ("widest-path-vs-enumeration", widest_err, 0.0),
        ("max-flow-certificate", flow_cert, 1e-9),
        ("widest-path-certificate", widest_cert, 0.0),
    ]

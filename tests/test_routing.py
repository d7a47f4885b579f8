import json
import math
import random

import numpy as np
import pytest

from qnetcap import routing
from qnetcap.errors import DomainError, SizeError
from qnetcap.network import annotate_uniform, apply_split, load_network, network_json_chunks
from qnetcap.oracles import (
    BRUTE_FORCE_MAX_NODES,
    bounded_from_values,
    brute_force_min_cut,
    brute_force_widest_path,
    check_flow_feasible,
    cut_value,
    max_flow_certificate_error,
    widest_path_certificate_error,
)
from qnetcap.routing import (
    capacity_report,
    cut_to_json,
    max_flow,
    min_neighbourhood_capacity,
    widest_path,
)
from qnetcap.selfcheck import random_bounded_graph
from qnetcap.wrn import WrnSpec, generate


def diamond():
    # two disjoint routes a-m1-b and a-m2-b plus a cross edge
    return bounded_from_values(
        [
            ("a", "m1", 0.6),
            ("a", "m2", 0.3),
            ("m1", "b", 0.4),
            ("m2", "b", 0.5),
            ("m1", "m2", 0.2),
        ],
        users=("a", "b"),
    )


def test_widest_path_diamond():
    res = widest_path(diamond(), "lower")
    assert res.value == pytest.approx(0.4)
    assert res.path == ("a", "m1", "b")


def test_widest_path_two_nodes():
    bg = bounded_from_values([("a", "b", 0.9)], users=("a", "b"))
    res = widest_path(bg, "lower")
    assert res.value == pytest.approx(0.9)
    assert res.path == ("a", "b")


def test_widest_path_disconnected():
    bg = bounded_from_values([("a", "m", 0.5), ("x", "b", 0.5)], users=("a", "b"))
    res = widest_path(bg, "lower")
    assert res.value == 0.0
    assert res.path == ()


def test_widest_path_tie_break_is_lexicographic():
    bg = bounded_from_values(
        [("a", "m1", 0.5), ("m1", "b", 0.5), ("a", "m0", 0.5), ("m0", "b", 0.5)],
        users=("a", "b"),
    )
    assert widest_path(bg, "lower").path == ("a", "m0", "b")


def test_widest_path_infinite_edges():
    bg = bounded_from_values([("a", "m", math.inf), ("m", "b", math.inf)], users=("a", "b"))
    res = widest_path(bg, "lower")
    assert res.value == math.inf
    assert res.path == ("a", "m", "b")


def test_max_flow_diamond():
    flow = max_flow(diamond(), "lower")
    # a's incident capacity 0.9 binds: 0.6 + 0.3
    assert flow.value == pytest.approx(0.9, abs=1e-12)
    check_flow_feasible(flow, diamond(), "lower")
    assert flow.mincut.a_side == frozenset({"a"})
    assert cut_value(diamond(), "lower", flow.mincut.a_side) == pytest.approx(0.9, abs=1e-12)


def test_max_flow_bridge():
    bg = bounded_from_values(
        [("a", "m", 0.8), ("m", "n", 0.25), ("n", "b", 0.9)], users=("a", "b")
    )
    flow = max_flow(bg, "lower")
    assert flow.value == pytest.approx(0.25, abs=1e-12)
    assert set(flow.mincut.edges) == {("m", "n")}
    check_flow_feasible(flow, bg, "lower")


def test_max_flow_disconnected():
    bg = bounded_from_values([("a", "m", 0.5), ("x", "b", 0.5)], users=("a", "b"))
    flow = max_flow(bg, "lower")
    assert flow.value == 0.0
    assert flow.flows == {}


def _network(node_ids, users):
    """Nodes ``node_ids`` and the chain a-m-b over ThermalLoss(0.5), loaded whatever its violations."""
    graph, _ = load_network(json.dumps({
        "nodes": [{"id": n} for n in node_ids],
        "edges": [{"a": a, "b": b, "channel": {"kind": "tl", "tau": 0.5}} for a, b in (("a", "m"), ("m", "b"))],
        "users": list(users),
    }))
    return graph


def uniform_chain(users):
    return annotate_uniform(_network(("a", "m", "b"), users), 0.5)


@pytest.mark.parametrize("users", [("a", "a"), ("a", "zz"), ("zz", "b")],
                         ids=["equal", "second-missing", "first-missing"])
@pytest.mark.parametrize("route", [max_flow, widest_path], ids=["max_flow", "widest_path"])
def test_routing_needs_two_distinct_graph_users(route, users):
    # annotate_uniform does not validate the users, so routing must.
    with pytest.raises(DomainError, match="two distinct graph nodes"):
        route(uniform_chain(users), "lower")
    assert route(uniform_chain(("a", "b")), "lower").value == 0.5


@pytest.mark.parametrize(
    "route",
    [
        lambda bg: widest_path(bg, "lower"),
        lambda bg: max_flow(bg, "lower"),
        lambda bg: min_neighbourhood_capacity(bg, "lower"),
        capacity_report,
    ],
    ids=["widest_path", "max_flow", "min_neighbourhood_capacity", "capacity_report"],
)
def test_routing_rejects_edges_to_unlisted_nodes(route):
    # Such a graph cannot be built, so no route ever sees one.
    with pytest.raises(DomainError, match="edge a-m: unknown endpoint 'm'"):
        route(annotate_uniform(_network(("a", "b"), ("a", "b")), 0.5))


def test_max_flow_rejects_non_finite():
    bg = bounded_from_values([("a", "b", math.inf)], users=("a", "b"))
    with pytest.raises(DomainError):
        max_flow(bg, "lower")
    bg = bounded_from_values([("a", "b", math.nan), ("a", "b2", 1.0)], users=("a", "b"))
    with pytest.raises(DomainError):
        max_flow(bg, "lower")


def test_flows_share_undirected_capacity():
    # both directions of m1-m2 would be attractive; net flow must respect cap
    bg = bounded_from_values(
        [
            ("a", "m1", 1.0),
            ("a", "m2", 1.0),
            ("m1", "m2", 0.1),
            ("m1", "b", 0.5),
            ("m2", "b", 1.5),
        ],
        users=("a", "b"),
    )
    flow = max_flow(bg, "lower")
    # cut {a, m1}: 1.0 (a-m2) + 0.1 (m1-m2) + 0.5 (m1-b)
    assert flow.value == pytest.approx(1.6, abs=1e-12)
    value, _ = brute_force_min_cut(bg, "lower")
    assert value == pytest.approx(1.6, abs=1e-12)
    check_flow_feasible(flow, bg, "lower")


def test_brute_force_min_cut_matches_and_caps_size():
    bg = diamond()
    value, cut = brute_force_min_cut(bg, "lower")
    assert value == pytest.approx(0.9, abs=1e-12)
    assert cut.a_side == frozenset({"a"})
    big = bounded_from_values(
        [(f"n{i}", f"n{i+1}", 1.0) for i in range(BRUTE_FORCE_MAX_NODES + 1)],
        users=("n0", f"n{BRUTE_FORCE_MAX_NODES + 1}"),
    )
    with pytest.raises(SizeError):
        brute_force_min_cut(big, "lower")


def test_brute_force_widest_path():
    assert brute_force_widest_path(diamond(), "lower") == pytest.approx(0.4)


def test_random_graphs_agree_with_oracles():
    rng = np.random.default_rng(20260817)
    for _ in range(60):
        bg = random_bounded_graph(rng, 9)
        flow = max_flow(bg, "lower")
        value, _ = brute_force_min_cut(bg, "lower")
        assert flow.value == pytest.approx(value, abs=1e-9)
        check_flow_feasible(flow, bg, "lower")
        assert widest_path(bg, "lower").value == brute_force_widest_path(bg, "lower")


def _chain_rows(hops):
    return [(f"c{i}", f"c{i + 1}", 1.0 + (i * 7919 % 1000) / 1000.0) for i in range(hops)]


def test_long_chain_max_flow_has_no_recursion_limit():
    hops = 2000
    rows = _chain_rows(hops)
    bg = bounded_from_values(rows, users=("c0", f"c{hops}"))
    flow = max_flow(bg, "lower")
    widest = widest_path(bg, "lower")
    assert flow.value == widest.value == min(row[2] for row in rows)
    assert len(widest.path) == hops + 1
    assert len(flow.mincut.edges) == 1
    check_flow_feasible(flow, bg, "lower")


class _FullLevelDinic(routing._Dinic):
    """Reference Dinic whose phases label every node reachable in the residual."""

    def _bfs(self, s, t):
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for arc in self.adj[u]:
                v = self.to[arc]
                if level[v] < 0 and self.cap[arc] > routing.RESIDUAL_TOL:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level


def _hop_distances(bg, source):
    adj = {n: [] for n in bg.nodes}
    for u, v in zip(bg.a, bg.b):
        adj[bg.nodes[u]].append(bg.nodes[v])
        adj[bg.nodes[v]].append(bg.nodes[u])
    dist = {source: 0}
    queue = [source]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _random_lattice(cell, radius, rng):
    graph = generate(WrnSpec(cell, radius, 10.0, "tl"))
    rows = []
    for u, v in zip(graph.a, graph.b):
        lo = rng.choice([0.0, rng.random(), rng.random(), 1.0])
        rows.append((graph.names[u], graph.names[v], lo, lo + rng.random()))
    return bounded_from_values(rows, users=graph.users)


def _cases():
    rng = random.Random(7)
    for cell in ("triangular6", "manhattan8"):
        for radius in (2, 3, 4):
            bg = _random_lattice(cell, radius, rng)
            # From a node at the patch's diameter, one second user per distance.
            dist = {n: _hop_distances(bg, n) for n in bg.nodes}
            far = max(bg.nodes, key=lambda n: max(dist[n].values()))
            by_distance = {}
            for node, d in sorted(dist[far].items()):
                by_distance.setdefault(d, node)
            for d in range(1, max(by_distance) + 1):
                yield bg._replace(users=(far, by_distance[d]))
    yield bounded_from_values(_chain_rows(2000), users=("c0", "c2000"))


def test_dinic_sink_level_cutoff_changes_no_flow(monkeypatch):
    phases = []  # (highest level minus the sink's, unlabelled nodes) per phase

    class LevelCheckDinic(routing._Dinic):
        def _bfs(self, s, t):
            level = super()._bfs(s, t)
            if level[t] >= 0:
                phases.append((max(level) - level[t], level.count(-1)))
            return level

    graphs = list(_cases())
    results = {}
    for solver in (_FullLevelDinic, LevelCheckDinic):
        monkeypatch.setattr(routing, "_Dinic", solver)
        results[solver] = [max_flow(bg, sel) for bg in graphs for sel in ("lower", "upper")]
    for got, want in zip(results[LevelCheckDinic], results[_FullLevelDinic], strict=True):
        assert got.value == want.value
        assert got.mincut == want.mincut
        assert got.flows == want.flows
    assert phases and max(over for over, _ in phases) == 0
    assert max(skipped for _, skipped in phases) > 0  # the cutoff did leave nodes out


def _hetero_lattice(seed):
    """Thermal-loss lattice with a seeded fibre per edge and devices per node."""
    rng = random.Random(seed)
    data = json.loads("".join(network_json_chunks(generate(WrnSpec("manhattan8", 3, 10.0, "tl")))))

    def device():
        return {"kind": "tl", "tau": rng.uniform(0.85, 1.0), "nbar": rng.uniform(0.0, 0.005)}

    for node in data["nodes"]:
        node["recv"] = device()
        node["send"] = device()
    for edge in data["edges"]:
        edge["fibre"] = {"length_km": rng.uniform(5.0, 25.0)}
    graph, violations = load_network(json.dumps(data))
    assert violations == []
    return apply_split(graph)


def test_capacity_report_is_the_standalone_calls(monkeypatch):
    builds = []
    arcs = routing._arcs
    monkeypatch.setattr(routing, "_arcs", lambda bg: builds.append(bg) or arcs(bg))
    for bg in [*_cases(), _hetero_lattice(11)]:
        builds.clear()
        rep = capacity_report(bg)
        assert len(builds) == 1
        for sel in ("lower", "upper"):
            assert getattr(rep, f"single_path_{sel}") == widest_path(bg, sel).value
            assert getattr(rep, f"flooding_{sel}") == max_flow(bg, sel).value
            assert getattr(rep, f"min_neighbourhood_{sel}") == min_neighbourhood_capacity(bg, sel)
        assert rep.upper_mincut == max_flow(bg, "upper").mincut


def test_capacity_report_builds_only_the_upper_cut(monkeypatch):
    cuts = []
    mincut = routing._mincut
    monkeypatch.setattr(routing, "_mincut", lambda bg, level: cuts.append(bg) or mincut(bg, level))
    bg = _hetero_lattice(11)
    rep = capacity_report(bg)
    assert len(cuts) == 1
    assert rep.upper_mincut == max_flow(bg, "upper").mincut


def test_capacity_report_keeps_upper_mincut():
    bg = diamond()
    rep = capacity_report(bg)
    upper = max_flow(bg, "upper")
    assert rep.flooding_upper == upper.value
    assert rep.upper_mincut == upper.mincut


def test_capacity_report_two_nodes():
    bg = bounded_from_values([("a", "b", 1.0)], users=("a", "b"))
    rep = capacity_report(bg)
    assert rep.single_path_lower == 1.0
    assert rep.single_path_upper == 1.0
    assert rep.flooding_lower == 1.0
    assert rep.flooding_upper == 1.0
    assert rep.min_neighbourhood_lower == 1.0
    assert rep.min_neighbourhood_upper == 1.0
    d = rep.as_dict()
    assert d["single_path"] == {"lower": 1.0, "upper": 1.0}
    assert set(d) == {"single_path", "flooding", "min_neighbourhood"}


def test_ordering_invariants_hold_on_reports():
    rng = np.random.default_rng(5)
    for _ in range(30):
        bg = random_bounded_graph(rng, 8)
        rep = capacity_report(bg)
        # single path <= flooding <= min neighbourhood, per selector
        assert rep.single_path_lower <= rep.flooding_lower + 1e-9
        assert rep.flooding_lower <= rep.min_neighbourhood_lower + 1e-9
        assert rep.single_path_upper <= rep.flooding_upper + 1e-9
        assert rep.flooding_upper <= rep.min_neighbourhood_upper + 1e-9


def test_cut_and_flow_json():
    flow = max_flow(diamond(), "lower")
    data = cut_to_json(flow.mincut)
    assert data["A"] == ["a"]
    assert data["B"] == ["b", "m1", "m2"]
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in data["edges"])


def _hetero_manhattan(seed):
    """manhattan8 r=20 with a distinct fibre per edge and a distinct device per node."""
    rng = random.Random(seed)
    doc = json.loads("".join(network_json_chunks(generate(WrnSpec("manhattan8", 20, 10.0, "tl")))))

    def device():
        return {"kind": "tl", "tau": rng.uniform(0.8, 1.0), "nbar": rng.uniform(0.0, 0.02)}

    for node in doc["nodes"]:
        node["recv"], node["send"] = device(), device()
    for edge in doc["edges"]:
        edge["fibre"] = {"length_km": rng.uniform(1.0, 40.0), "gamma": 0.02, "nbar_B": 0.002}
    return doc


def _fibre_chain(hops, seed):
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(hops + 1)]
    edges = [{"a": u, "b": v, "fibre": {"length_km": rng.uniform(1.0, 20.0)}} for u, v in zip(names, names[1:])]
    return {"nodes": [{"id": n} for n in names], "edges": edges, "users": [names[0], names[-1]], "family": "tl"}


@pytest.mark.parametrize("build,args", [(_hetero_manhattan, (3,)), (_fibre_chain, (2000, 6))],
                         ids=["manhattan8-r20", "chain2000"])
def test_capacity_report_is_certified_at_full_size(build, args):
    # The O(E) optimality certificates of the oracles: a feasible flow and a cut of the same
    # value prove each other maximal and minimal; a path of bottleneck w, with the second user
    # out of reach over edges above w, proves no path is wider.
    graph, violations = load_network(json.dumps(build(*args)))
    assert violations == []
    bg = apply_split(graph)
    report = capacity_report(bg)
    assert report.upper_mincut == max_flow(bg, "upper").mincut
    for side in ("lower", "upper"):
        flow = max_flow(bg, side)
        assert flow.value == getattr(report, f"flooding_{side}") > 0.0
        assert max_flow_certificate_error(bg, side, flow) <= 1e-9 * flow.value
        widest = widest_path(bg, side)
        assert widest.value == getattr(report, f"single_path_{side}") > 0.0
        assert widest_path_certificate_error(bg, side, widest) == 0.0

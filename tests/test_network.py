import dataclasses
import json
import math
import random

import pytest

from qnetcap import bounds, network
from qnetcap.bounds import BoundKind
from qnetcap.channels import (
    AmplitudeDamping,
    FibreParams,
    Identity,
    NodeSpec,
    PureLoss,
    ThermalLoss,
)
from qnetcap.errors import (
    DomainError,
    FamilyError,
    ValidationError,
)
from qnetcap.network import (
    BoundedGraph,
    Edge,
    NetworkGraph,
    annotate_uniform,
    apply_split,
    load_network,
    network_to_json,
    resolved_family,
    validate,
)
from qnetcap.oracles import OrientedBounds, bounded_from_values, oriented_edge_bounds
from qnetcap.routing import min_neighbourhood_capacity
from qnetcap.wrn import WrnSpec, generate


def _nodes(*ids, role_map=None):
    role_map = role_map or {}
    return {i: NodeSpec(i, role=role_map.get(i, "repeater")) for i in ids}


def two_node_graph():
    nodes = _nodes("a", "b", role_map={"a": "user", "b": "user"})
    return NetworkGraph(
        nodes=nodes,
        edges=(Edge("a", "b", channel=PureLoss(0.5)),),
        users=("a", "b"),
    )


def test_edge_needs_exactly_one_source():
    with pytest.raises(DomainError):
        Edge("a", "b")
    with pytest.raises(DomainError):
        Edge("a", "b", channel=PureLoss(0.5), fibre=FibreParams(10.0))


def test_validate_clean_graph():
    assert validate(two_node_graph()) == []


def test_validate_missing_users():
    g = NetworkGraph(nodes=_nodes("a", "b"), edges=(Edge("a", "b", channel=PureLoss(0.5)),))
    violations = validate(g)
    assert "users: required" in violations


def test_validate_unknown_user_and_endpoint():
    g = NetworkGraph(
        nodes=_nodes("a", "b"),
        edges=(Edge("a", "q", channel=PureLoss(0.5)),),
        users=("a", "z"),
    )
    violations = validate(g)
    assert "users: unknown node 'z'" in violations
    assert "edge a-q: unknown endpoint 'q'" in violations


def test_validate_self_loop_parallel_and_role():
    nodes = _nodes("a", "b", "c", role_map={"c": "user"})
    g = NetworkGraph(
        nodes=nodes,
        edges=(
            Edge("a", "a", channel=PureLoss(0.5)),
            Edge("a", "b", channel=PureLoss(0.5)),
            Edge("b", "a", channel=PureLoss(0.4)),
        ),
        users=("a", "b"),
    )
    violations = validate(g)
    assert any("self-loops" in v for v in violations)
    assert any("parallel edges" in v for v in violations)
    assert "node 'c': role 'user' but not an end user" in violations


def test_family_resolution():
    g = two_node_graph()
    assert resolved_family(g) == "tl"
    ambiguous = NetworkGraph(
        nodes=_nodes("a", "b"),
        edges=(Edge("a", "b", channel=Identity()),),
        users=("a", "b"),
    )
    with pytest.raises(FamilyError):
        resolved_family(ambiguous)
    assert resolved_family(
        NetworkGraph(ambiguous.nodes, ambiguous.edges, ambiguous.users, family="ad")
    ) == "ad"
    mixed = NetworkGraph(
        nodes=_nodes("a", "b", "c"),
        edges=(
            Edge("a", "b", channel=PureLoss(0.5)),
            Edge("b", "c", channel=AmplitudeDamping(0.1)),
        ),
        users=("a", "c"),
    )
    assert any("family mismatch" in v for v in validate(mixed))


def test_apply_split_matches_direct_bounds():
    nodes = {
        "a": NodeSpec("a", role="user"),
        "b": NodeSpec("b", recv=ThermalLoss(0.9, 0.01)),
        "c": NodeSpec("c", role="user"),
    }
    g = NetworkGraph(
        nodes=nodes,
        edges=(
            Edge("a", "b", channel=ThermalLoss(0.5, 0.002)),
            Edge("b", "c", fibre=FibreParams(50.0)),
        ),
        users=("a", "c"),
    )
    bg = apply_split(g)
    assert bg.users == ("a", "c")
    direct = oriented_edge_bounds(ThermalLoss(0.5, 0.002), nodes["a"], nodes["b"], "tl")
    assert _edge_bounds(bg, 0) == direct
    assert bg.lower[1] <= bg.upper[1]


def _edge_bounds(bg, i):
    """Edge i of ``bg`` as the record ``oriented_edge_bounds`` returns."""
    a, b = bg.nodes[bg.a[i]], bg.nodes[bg.b[i]]

    def orientation(sender):
        return (a, b) if sender == bg.a[i] else (b, a)

    return OrientedBounds(bg.lower[i], bg.upper[i], orientation(bg.lower_sender[i]),
                          orientation(bg.upper_sender[i]), bg.lower_kind[i], bg.upper_kind[i])


def _bounded(**columns):
    """A two-node, one-edge BoundedGraph with some columns replaced."""
    row = dict(nodes=("a", "b"), users=("a", "b"), a=(0,), b=(1,), lower=(0.5,), upper=(0.5,),
               lower_kind=(BoundKind.RCI_LOWER,), upper_kind=(BoundKind.REE_UPPER,),
               lower_sender=(0,), upper_sender=(0,))
    return BoundedGraph(**{**row, **columns})


def test_bounded_graph_enforces_bound_order():
    with pytest.raises(DomainError, match="bounds out of order"):
        _bounded(lower=(1.0,), upper=(0.5,))
    with pytest.raises(DomainError, match="lower bound must be >= 0"):
        _bounded(lower=(-0.1,), upper=(0.5,))
    _bounded(lower=(0.5,), upper=(0.5 - 1e-13,))  # within BOUND_ORDER_TOL


def test_bounded_graph_rejects_unknown_endpoint_numbers():
    for a, b in [(0, 2), (2, 1), (-1, 1)]:
        with pytest.raises(DomainError, match=rf"edge #0: endpoints \({a}, {b}\) must number nodes 0 to 1"):
            _bounded(a=(a,), b=(b,))
    with pytest.raises(DomainError, match="must number nodes 0 to 0"):
        dataclasses.replace(_bounded(), nodes=("a",))


def test_bounded_graph_columns_have_one_entry_per_edge():
    with pytest.raises(DomainError, match="one entry per edge"):
        _bounded(upper=(0.5, 0.5))


def test_bounded_graph_admits_non_finite_values():
    # max_flow, not construction, rejects these
    for lower, upper in [(math.nan, 0.5), (0.5, math.nan), (math.inf, math.inf), (0.5, math.inf)]:
        bg = _bounded(lower=(lower,), upper=(upper,))
        assert (bg.lower, bg.upper) == ((lower,), (upper,))


def test_apply_split_validation_gate():
    g = NetworkGraph(nodes=_nodes("a", "b"), edges=(Edge("a", "b", channel=PureLoss(0.5)),))
    with pytest.raises(ValidationError) as err:
        apply_split(g)
    assert "users: required" in err.value.violations


def test_neighbourhood_and_min_capacity():
    bg = bounded_from_values(
        [("u", "m", 0.3), ("m", "v", 0.2), ("u", "v", 0.1)], users=("u", "v")
    )
    assert min_neighbourhood_capacity(bg, "lower") == pytest.approx(0.3)
    with pytest.raises(DomainError):
        min_neighbourhood_capacity(bg, "middle")


@pytest.mark.parametrize("users", [("a", "zz"), ("zz", "b"), ("b", "b")],
                         ids=["second-missing", "first-missing", "equal"])
def test_min_neighbourhood_needs_two_distinct_graph_users(users):
    bg = bounded_from_values([("a", "m", 0.5), ("m", "b", 0.5)], users=("a", "b"))
    with pytest.raises(DomainError, match="two distinct graph nodes"):
        min_neighbourhood_capacity(dataclasses.replace(bg, users=users), "lower")
    assert min_neighbourhood_capacity(bg, "lower") == 0.5


def _loaded(graph):
    """The graph as the CLI sees it: through JSON."""
    loaded, violations = load_network(json.loads(json.dumps(network_to_json(graph))))
    assert violations == []
    return loaded


def _lattice(cell, fam, **devices):
    return _loaded(generate(WrnSpec(cell, 3, 10.0, fam, **devices)))


def _distinct_devices(graph, fam, seed):
    rng = random.Random(seed)

    def device():
        if fam == "ad":
            return AmplitudeDamping(rng.uniform(0.0, 0.3))
        return ThermalLoss(rng.uniform(0.7, 1.0), rng.choice([0.0, rng.uniform(0.0, 0.02)]))

    nodes = {n: dataclasses.replace(spec, recv=device(), send=device()) for n, spec in graph.nodes.items()}
    return dataclasses.replace(graph, nodes=nodes)


def _alternating_chain(classes):
    ids = [f"c{i}" for i in range(9)]
    nodes = {i: NodeSpec(i, recv=ThermalLoss(0.9, 0.01), send=ThermalLoss(0.95, 0.0)) for i in ids}
    edges = tuple(
        Edge(a, b, **classes[i % len(classes)]) for i, (a, b) in enumerate(zip(ids, ids[1:]))
    )
    return NetworkGraph(nodes, edges, users=(ids[0], ids[-1]), family="tl")


MEMO_GRAPHS = {
    "tl-manhattan8-asym": _lattice("manhattan8", "tl", recv=ThermalLoss(0.9, 0.01), send=ThermalLoss(0.95, 0.0)),
    "tl-triangular6-asym": _lattice("triangular6", "tl", recv=PureLoss(0.8), send=ThermalLoss(0.97, 0.003)),
    "ad-triangular6-asym": _lattice("triangular6", "ad", recv=AmplitudeDamping(0.05), send=AmplitudeDamping(0.2)),
    "ad-manhattan8-asym": _lattice("manhattan8", "ad", recv=AmplitudeDamping(0.1), send=Identity()),
    "tl-distinct-devices": _distinct_devices(generate(WrnSpec("manhattan8", 2, 10.0, "tl")), "tl", 3),
    "ad-distinct-devices": _distinct_devices(generate(WrnSpec("triangular6", 2, 10.0, "ad")), "ad", 4),
    "alternating-fibres": _alternating_chain([{"fibre": FibreParams(10.0)}, {"fibre": FibreParams(25.0)}]),
    "alternating-fibre-channel": _alternating_chain(
        [{"fibre": FibreParams(10.0)}, {"channel": ThermalLoss(0.5, 0.01)}, {"channel": Identity()}]
    ),
}


@pytest.mark.parametrize("name", MEMO_GRAPHS)
def test_apply_split_matches_per_edge_bounds(name):
    graph = MEMO_GRAPHS[name]
    fam = resolved_family(graph)
    bg = apply_split(graph)
    assert [(bg.nodes[u], bg.nodes[v]) for u, v in zip(bg.a, bg.b)] == [(e.a, e.b) for e in graph.edges]
    for i, edge in enumerate(graph.edges):
        a, b = graph.nodes[edge.a], graph.nodes[edge.b]
        assert _edge_bounds(bg, i) == oriented_edge_bounds(edge.resolve(fam), a, b, fam)


@pytest.mark.parametrize("source", ["generated", "loaded", "copied"])
def test_apply_split_bounds_a_repeated_class_once(monkeypatch, source):
    graph = generate(WrnSpec("manhattan8", 4, 10.0, "tl"))
    if source == "loaded":
        graph = _loaded(graph)
    elif source == "copied":  # equal but distinct FibreParams on every edge
        edges = tuple(dataclasses.replace(e, fibre=dataclasses.replace(e.fibre)) for e in graph.edges)
        graph = dataclasses.replace(graph, edges=edges)
    calls = []
    compound = bounds.compound

    def counting(*args):
        calls.append(args)
        return compound(*args)

    monkeypatch.setattr(bounds, "compound", counting)
    bg = apply_split(graph)
    assert len(bg.a) == len(graph.edges) > 1000
    assert 1 <= len(calls) <= 2
    # Both directions tie on every edge, so each keeps its own smaller id pair.
    assert all(
        _edge_bounds(bg, i).lower_orientation == _edge_bounds(bg, i).upper_orientation == e.key()
        for i, e in enumerate(graph.edges)
    )
    assert any(e.key() != (e.a, e.b) for e in graph.edges)


def test_apply_split_validates_only_unchecked_graphs(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(network, "validate", counting)
    graph = two_node_graph()
    apply_split(graph)
    apply_split(graph)
    assert len(calls) == 1  # the first call found it valid
    loaded = _loaded(graph)
    calls.clear()
    apply_split(loaded)
    assert calls == []  # load_network validated it
    with pytest.raises(ValidationError):
        apply_split(dataclasses.replace(loaded, users=("a", "zz")))  # a new graph is checked again


def test_annotate_uniform():
    g = two_node_graph()
    bg = annotate_uniform(g, 0.7)
    assert bg.lower == bg.upper == (0.7,) * len(g.edges)
    with pytest.raises(DomainError):
        annotate_uniform(g, -1.0)


def test_network_json_round_trip():
    nodes = {
        "a": NodeSpec("a", role="user"),
        "b": NodeSpec("b", recv=ThermalLoss(0.9, 0.01), send=ThermalLoss(0.95, 0.0)),
        "c": NodeSpec("c", role="user"),
    }
    g = NetworkGraph(
        nodes=nodes,
        edges=(
            Edge("a", "b", channel=ThermalLoss(0.5, 0.002)),
            Edge("b", "c", fibre=FibreParams(50.0, gamma=0.02, nbar_B=0.001)),
        ),
        users=("a", "c"),
        family="tl",
    )
    data = json.loads(json.dumps(network_to_json(g)))
    loaded, violations = load_network(data)
    assert violations == []
    assert loaded.users == g.users
    assert loaded.family == "tl"
    assert loaded.nodes["b"].recv == ThermalLoss(0.9, 0.01)
    assert loaded.edges[1].fibre == FibreParams(50.0, gamma=0.02, nbar_B=0.001)


def test_load_network_collects_violations():
    loaded, violations = load_network({"nodes": [], "edges": []})
    assert "users: required" in violations
    loaded, violations = load_network(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"a": "a", "b": "b", "channel": {"kind": "pl", "eta": 0.5}}],
            "users": ["a", "b"],
        }
    )
    assert violations == []
    assert loaded.edges[0].channel == PureLoss(0.5)


def test_load_network_shares_the_fibre_of_a_lattice():
    graph = _loaded(generate(WrnSpec("manhattan8", 3, 10.0, "tl")))
    first = graph.edges[0].fibre
    assert all(e.fibre is first for e in graph.edges)


def _load_each_fibre(data):
    """load_network with every fibre built on its own: a distinct extra key,
    which the parser ignores, makes no two fibre objects equal."""
    edges = [
        {**e, "fibre": {**e["fibre"], "edge": i}} if isinstance(e.get("fibre"), dict) else e
        for i, e in enumerate(data["edges"])
    ]
    return load_network({**data, "edges": edges})


def test_load_network_fibre_memo_matches_per_edge_parse():
    fibres = [
        None,  # not an object, with nothing parsed before it
        {"length_km": 10.0},
        {"length_km": 10.0},
        {"length_km": 25.0, "nbar_B": 0.0},
        {"length_km": 10.0},
        {"gamma": 0.02},
        {"length_km": 10.0},
        {"length_km": "x"},
        {"length_km": 10.0},
        {"length_km": -1},
        {"length_km": 10.0},
        {"length_km": 5.0},
        {"length_km": 5.0, "gamma": 0.02},
        {"length_km": 10},
        {"length_km": 10.0},
        [10.0],
        {"length_km": 10.0},
    ]
    ids = [f"n{i}" for i in range(len(fibres) + 1)]
    data = {
        "family": "tl",
        "nodes": [{"id": i} for i in ids],
        "edges": [{"a": a, "b": b, "fibre": f} for a, b, f in zip(ids, ids[1:], fibres)],
        "users": [ids[0], ids[-1]],
    }
    graph, violations = load_network(data)
    reference, expected = _load_each_fibre(data)
    assert violations == expected == [
        "edge n0-n1: fibre needs a 'length_km'",
        "edge n5-n6: fibre needs a 'length_km'",
        "edge n7-n8: could not convert string to float: 'x'",
        "edge n9-n10: fibre length must be >= 0 km, got -1.0",
        "edge n15-n16: fibre needs a 'length_km'",
    ]
    assert graph == reference
    assert len(graph.edges) == len(fibres) - 5
    # Each run of equal raw fibres shares one object, across the malformed
    # fibres inside it; the default gamma and an explicit 0.02 are parsed apart.
    assert len({id(e.fibre) for e in graph.edges}) == 6
    assert graph.edges[3].fibre is graph.edges[6].fibre
    assert graph.edges[7].fibre == graph.edges[8].fibre
    assert graph.edges[9].fibre is graph.edges[11].fibre


def test_load_network_rejects_garbage():
    _, violations = load_network([1, 2, 3])
    assert violations
    _, violations = load_network({"nodes": "x", "edges": []})
    assert violations
    _, violations = load_network(
        {
            "nodes": [{"id": "a"}, {"id": "a"}],
            "edges": [],
            "users": ["a", "a"],
        }
    )
    assert any("duplicate" in v for v in violations)


def test_bounded_from_values_shapes():
    bg = bounded_from_values([("x", "y", 0.2, 0.4)], users=("x", "y"))
    assert isinstance(bg, BoundedGraph)
    assert bg.lower[0] == 0.2
    assert bg.upper[0] == 0.4

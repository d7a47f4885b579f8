import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcap import bounds, network
from qnetcap.bounds import BoundKind
from qnetcap.channels import (
    IDENTITY,
    AmplitudeDamping,
    FibreParams,
    Identity,
    NodeSpec,
    ThermalLoss,
)
from qnetcap.errors import (
    DomainError,
    FamilyError,
    ValidationError,
)
from qnetcap.network import (
    BoundedGraph,
    EdgeView,
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

HUGE_INT = 10 ** 400
TL_CHANNEL = {"kind": "tl", "tau": 0.5}


def _doc(nodes, edges, users=("a", "b"), **extra):
    """A network document; a node given as a string is {"id": it}."""
    doc = {"nodes": [n if isinstance(n, dict) else {"id": n} for n in nodes], "edges": edges, **extra}
    if users is not None:
        doc["users"] = list(users)
    return doc


def _e(a, b, **source):
    """An edge object, over ThermalLoss(0.5) unless a channel or fibre is given."""
    return {"a": a, "b": b, **(source or {"channel": TL_CHANNEL})}


def _graph(doc):
    """``doc`` through ``load_network``, whatever its violations."""
    graph, _ = load_network(json.dumps(doc))
    return graph


def two_node_graph():
    return _graph(_doc([{"id": "a", "role": "user"}, {"id": "b", "role": "user"}], [_e("a", "b")]))


def test_edge_needs_exactly_one_source():
    for source in ({}, {"channel": TL_CHANNEL, "fibre": {"length_km": 10.0}}):
        graph, violations = load_network(json.dumps(_doc(["a", "b"], [{"a": "a", "b": "b", **source}])))
        assert violations[0] == "edge a-b: exactly one of 'channel' or 'fibre' required"
        assert graph.a == ()


def test_validate_clean_graph():
    assert validate(two_node_graph()) == []


def test_validate_missing_users():
    g = _graph(_doc(["a", "b"], [_e("a", "b")], users=None))
    violations = validate(g)
    assert "users: required" in violations


def test_validate_unknown_user_and_endpoint():
    g = _graph(_doc(["a", "b"], [_e("a", "q")], users=("a", "z")))
    violations = validate(g)
    assert "users: unknown node 'z'" in violations
    assert "edge a-q: unknown endpoint 'q'" in violations


def test_validate_self_loop_parallel_and_role():
    g = _graph(_doc(
        ["a", "b", {"id": "c", "role": "user"}],
        [_e("a", "a"), _e("a", "b"), _e("b", "a", channel={"kind": "tl", "tau": 0.4})],
    ))
    violations = validate(g)
    assert any("self-loops" in v for v in violations)
    assert any("parallel edges" in v for v in violations)
    assert "node 'c': role 'user' but not an end user" in violations


def test_family_resolution():
    g = two_node_graph()
    assert resolved_family(g) == "tl"
    ambiguous = _graph(_doc(["a", "b"], [_e("a", "b", channel={"kind": "id"})]))
    with pytest.raises(FamilyError):
        resolved_family(ambiguous)
    assert resolved_family(ambiguous._replace(family="ad")) == "ad"
    mixed = _graph(_doc(
        ["a", "b", "c"], [_e("a", "b"), _e("b", "c", channel={"kind": "ad", "p": 0.1})], users=("a", "c")
    ))
    assert any("family mismatch" in v for v in validate(mixed))


def test_apply_split_matches_direct_bounds():
    nodes = {
        "a": NodeSpec("a", role="user"),
        "b": NodeSpec("b", recv=ThermalLoss(0.9, 0.01)),
        "c": NodeSpec("c", role="user"),
    }
    g = _graph(_doc(
        [{"id": "a", "role": "user"}, {"id": "b", "recv": {"kind": "tl", "tau": 0.9, "nbar": 0.01}},
         {"id": "c", "role": "user"}],
        [_e("a", "b", channel={"kind": "tl", "tau": 0.5, "nbar": 0.002}),
         _e("b", "c", fibre={"length_km": 50.0})],
        users=("a", "c"),
    ))
    assert g.nodes == nodes
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


@pytest.mark.parametrize("users", [("a",), ("a", "b", "c"), "ab", ("a", 1), ["a", "b"]],
                         ids=["one", "three", "string", "not-a-name", "list"])
def test_graph_records_refuse_users_that_are_not_a_pair_of_names(users):
    # Past construction, validate indexed users[1] and routing unpacked two.
    with pytest.raises(DomainError, match="users must be a pair of node names"):
        _bounded(users=users)
    with pytest.raises(DomainError, match="users must be a pair of node names"):
        _columns("ab", [IDENTITY] * 2, [IDENTITY] * 2, ["user"] * 2, [(0, 1, 0)], [FibreParams(1.0)], users=users)
    _columns("ab", [IDENTITY] * 2, [IDENTITY] * 2, ["repeater"] * 2, [(0, 1, 0)], [FibreParams(1.0)], users=None)


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
        _bounded()._replace(nodes=("a",))


def test_bounded_graph_columns_have_one_entry_per_edge():
    with pytest.raises(DomainError, match="one entry per edge"):
        _bounded(upper=(0.5, 0.5))


def test_bounded_graph_admits_non_finite_values():
    # max_flow, not construction, rejects these
    for lower, upper in [(math.nan, 0.5), (0.5, math.nan), (math.inf, math.inf), (0.5, math.inf)]:
        bg = _bounded(lower=(lower,), upper=(upper,))
        assert (bg.lower, bg.upper) == ((lower,), (upper,))


def test_apply_split_validation_gate():
    g = _graph(_doc(["a", "b"], [_e("a", "b")], users=None))
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
        min_neighbourhood_capacity(bg._replace(users=users), "lower")
    assert min_neighbourhood_capacity(bg, "lower") == 0.5


def _loaded(graph):
    """The graph as the CLI sees it: through JSON."""
    loaded, violations = load_network(network_to_json(graph))
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

    recv, send = zip(*[(device(), device()) for _ in graph.role])
    return graph._replace(recv=recv, send=send)


def _distinct_fibres(graph, seed):
    """Every edge on its own seeded fibre, as in a heterogeneous network file."""
    rng = random.Random(seed)
    classes = tuple(FibreParams(rng.uniform(5.0, 25.0), rng.uniform(0.01, 0.05), rng.uniform(0.0, 0.005))
                    for _ in graph.a)
    return graph._replace(cls=tuple(range(len(classes))), classes=classes)


def _hetero(cell, fam, seed):
    """A radius-3 lattice with distinct devices per node and a distinct fibre per edge, through JSON."""
    return _loaded(_distinct_fibres(_distinct_devices(generate(WrnSpec(cell, 3, 10.0, fam)), fam, seed), seed))


def _alternating_chain(classes, hops=8):
    """A thermal chain whose edges take the sources in ``classes`` in turn."""
    ids = [f"c{i}" for i in range(hops + 1)]
    nodes = [{"id": i, "recv": {"kind": "tl", "tau": 0.9, "nbar": 0.01}, "send": {"kind": "tl", "tau": 0.95}}
             for i in ids]
    edges = [_e(a, b, **classes[i % len(classes)]) for i, (a, b) in enumerate(zip(ids, ids[1:]))]
    graph, violations = load_network(json.dumps(_doc(nodes, edges, users=(ids[0], ids[-1]), family="tl")))
    assert violations == []
    return graph


MEMO_GRAPHS = {
    "tl-manhattan8-asym": _lattice("manhattan8", "tl", recv=ThermalLoss(0.9, 0.01), send=ThermalLoss(0.95, 0.0)),
    "tl-triangular6-asym": _lattice("triangular6", "tl", recv=ThermalLoss(0.8), send=ThermalLoss(0.97, 0.003)),
    "ad-triangular6-asym": _lattice("triangular6", "ad", recv=AmplitudeDamping(0.05), send=AmplitudeDamping(0.2)),
    "ad-manhattan8-asym": _lattice("manhattan8", "ad", recv=AmplitudeDamping(0.1), send=Identity()),
    "tl-distinct-devices": _distinct_devices(generate(WrnSpec("manhattan8", 2, 10.0, "tl")), "tl", 3),
    "ad-distinct-devices": _distinct_devices(generate(WrnSpec("triangular6", 2, 10.0, "ad")), "ad", 4),
    "tl-hetero-manhattan8": _hetero("manhattan8", "tl", 5),
    "ad-hetero-triangular6": _hetero("triangular6", "ad", 6),
    "alternating-fibres": _alternating_chain([{"fibre": {"length_km": 10.0}}, {"fibre": {"length_km": 25.0}}]),
    "alternating-fibre-channel": _alternating_chain(
        [{"fibre": {"length_km": 10.0}}, {"channel": {"kind": "tl", "tau": 0.5, "nbar": 0.01}},
         {"channel": {"kind": "id"}}]
    ),
}


@pytest.mark.parametrize("name", MEMO_GRAPHS)
def test_apply_split_matches_per_edge_bounds(name):
    graph = MEMO_GRAPHS[name]
    fam = resolved_family(graph)
    bg = apply_split(graph)
    assert (bg.nodes, bg.a, bg.b) == (graph.names, graph.a, graph.b)
    nodes = list(graph.nodes.values())
    for i, (u, v, c) in enumerate(zip(graph.a, graph.b, graph.cls)):
        assert _edge_bounds(bg, i) == oriented_edge_bounds(graph.classes[c], nodes[u], nodes[v], fam)


@pytest.mark.parametrize("source", ["generated", "loaded", "copied"])
def test_apply_split_bounds_a_repeated_class_once(monkeypatch, source):
    graph = generate(WrnSpec("manhattan8", 4, 10.0, "tl"))
    if source == "loaded":
        graph = _loaded(graph)
    elif source == "copied":  # an equal but distinct FibreParams as each edge's own class
        graph = graph._replace(cls=tuple(range(len(graph.a))),
                               classes=tuple(graph.classes[0]._replace() for _ in graph.a))
    calls = []
    compound = bounds.compound

    def counting(*args):
        calls.append(args)
        return compound(*args)

    monkeypatch.setattr(bounds, "compound", counting)
    bg = apply_split(graph)
    assert len(bg.a) == len(graph.a) > 1000
    assert 1 <= len(calls) <= 2
    # Both directions tie on every edge, so each keeps its own smaller id pair.
    pairs = [(graph.names[u], graph.names[v]) for u, v in zip(graph.a, graph.b)]
    assert all(
        _edge_bounds(bg, i).lower_orientation == _edge_bounds(bg, i).upper_orientation == tuple(sorted(pair))
        for i, pair in enumerate(pairs)
    )
    assert any(tuple(sorted(pair)) != pair for pair in pairs)


def _counting_direction_bounds(monkeypatch):
    """The (fam, send, channel, recv) argument tuples of every ``direction_bounds`` call."""
    calls = []
    direction_bounds = network.direction_bounds

    def counting(*args):
        calls.append(args)
        return direction_bounds(*args)

    monkeypatch.setattr(network, "direction_bounds", counting)
    return calls


def _directions(graph):
    """The (fam, send, channel, recv) family-native tuple of each edge's
    forward then backward direction, in edge order."""
    fam = resolved_family(graph)
    native = bounds.family_native(fam)
    return [
        (fam, native(graph.send[s]), native(graph.classes[c]), native(graph.recv[r]))
        for u, v, c in zip(graph.a, graph.b, graph.cls) for s, r in ((u, v), (v, u))
    ]


@pytest.mark.parametrize("name", MEMO_GRAPHS)
def test_apply_split_bounds_a_direction_unless_it_repeats_the_previous(monkeypatch, name):
    graph = MEMO_GRAPHS[name]
    directions = _directions(graph)
    calls = _counting_direction_bounds(monkeypatch)
    apply_split(graph)
    assert calls == [d for i, d in enumerate(directions) if i == 0 or d != directions[i - 1]]
    if "asym" in name:  # a generated lattice: one call per distinct direction
        assert len(calls) == len(set(directions)) == 1


@pytest.mark.parametrize("pattern, expected_calls", [("ABAB", 4), ("AABB", 2), ("ABBA", 3)])
def test_apply_split_reuses_only_the_previous_direction(monkeypatch, pattern, expected_calls):
    sources = {"A": {"fibre": {"length_km": 10.0}}, "B": {"fibre": {"length_km": 25.0}}}
    graph = _alternating_chain([sources[k] for k in pattern], hops=len(pattern))
    calls = _counting_direction_bounds(monkeypatch)
    bg = apply_split(graph)
    # Every node has the same devices, so each class has one direction, and
    # a class is bounded again wherever it follows the other one.
    assert len(calls) == expected_calls
    by_class = {c: bg.lower[i] for i, c in enumerate(graph.cls)}
    assert bg.lower == tuple(by_class[c] for c in graph.cls)
    assert by_class[0] > by_class[1]


@pytest.mark.parametrize("fam", ["tl", "ad"])
@pytest.mark.parametrize("length", ["20000", "1e400"])
def test_a_fibre_that_transmits_nothing_has_bound_zero(fam, length):
    # 10^(-0.02 * 20000) underflows to 0.0, and json reads 1e400 as inf.
    text = json.dumps(_doc(
        [{"id": "a", "role": "user"}, "b", {"id": "c", "role": "user"}],
        [_e("a", "b", fibre={"length_km": "LENGTH"}), _e("b", "c", fibre={"length_km": 10.0})],
        users=("a", "c"), family=fam,
    )).replace('"LENGTH"', length)
    graph, violations = load_network(text)
    assert violations == []
    assert graph.classes[0].transmissivity == 0.0
    bg = apply_split(graph)
    assert (bg.lower[0], bg.upper[0]) == (0.0, 0.0)
    assert bg.lower[1] > 0.0
    if fam == "tl":
        assert (bg.lower_kind[0], bg.upper_kind[0]) == (BoundKind.DARK_FIBRE, BoundKind.DARK_FIBRE)
    else:  # full damping: the damping bounds are 0 of themselves
        assert (bg.lower_kind[0], bg.upper_kind[0]) == (BoundKind.RCI_LOWER, BoundKind.SQUASHED_UPPER)
    nodes = list(graph.nodes.values())
    for i, (u, v, c) in enumerate(zip(graph.a, graph.b, graph.cls)):
        assert _edge_bounds(bg, i) == oriented_edge_bounds(graph.classes[c], nodes[u], nodes[v], fam)


def test_graph_views_match_columns():
    graph = _graph(_doc(
        [{"id": "a", "role": "user"}, {"id": "b", "recv": {"kind": "ad", "p": 0.1}}, {"id": "c", "role": "user"}],
        [_e("a", "b", fibre={"length_km": 5.0}), _e("b", "c", channel={"kind": "ad", "p": 0.2}),
         _e("c", "q", fibre={"length_km": 5.0})],
        users=("a", "c"),
    ))
    assert graph.names == ("a", "b", "c", "q")  # "q" names no node
    assert graph.nodes == {
        "a": NodeSpec("a", role="user"),
        "b": NodeSpec("b", recv=AmplitudeDamping(0.1)),
        "c": NodeSpec("c", role="user"),
    }
    assert (graph.a, graph.b, graph.cls) == ((0, 1, 2), (1, 2, 3), (0, 1, 0))
    assert graph.edges == (
        EdgeView("a", "b", None, FibreParams(5.0)),
        EdgeView("b", "c", AmplitudeDamping(0.2), None),
        EdgeView("c", "q", None, FibreParams(5.0)),
    )


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
        apply_split(loaded._replace(users=("a", "zz")))  # a new graph is checked again


def test_annotate_uniform():
    g = two_node_graph()
    bg = annotate_uniform(g, 0.7)
    assert bg.lower == bg.upper == (0.7,) * len(g.a)
    with pytest.raises(DomainError):
        annotate_uniform(g, -1.0)


def _columns(names, recv, send, role, edges, classes, **extra):
    """A NetworkGraph from node columns and (a, b, cls) edge triples."""
    a, b, cls = zip(*edges) if edges else ((), (), ())
    return NetworkGraph(tuple(names), tuple(recv), tuple(send), tuple(role), a, b, cls, tuple(classes), **extra)


# Equal records that print apart: a writer that shared one text between equal
# records would print the second of each pair as the first.
AD_TWINS = (AmplitudeDamping(0.0), AmplitudeDamping(-0.0), AmplitudeDamping(1.0), AmplitudeDamping(1))
TL_TWINS = (ThermalLoss(1.0, 0.0), ThermalLoss(1, -0.0), ThermalLoss(0.5, 0), ThermalLoss(0.5, 0.0))

WRITER_GRAPHS = {
    "tl-lattice": lambda: generate(WrnSpec("manhattan8", 3, 10.0, "tl")),
    "ad-lattice": lambda: generate(WrnSpec("triangular6", 3, 7.5, "ad", gamma=0.03)),
    "tl-lattice-devices": lambda: generate(WrnSpec(
        "manhattan8", 2, 2.0, "tl", recv=ThermalLoss(0.9, 0.01), send=ThermalLoss(0.95), nbar_B=0.0)),
    "ad-lattice-devices": lambda: generate(WrnSpec(
        "triangular6", 2, 2.0, "ad", recv=AmplitudeDamping(0.05), send=AmplitudeDamping(0.02))),
    "tl-channels-and-fibres": lambda: _columns(
        "abcde", [IDENTITY, ThermalLoss(0.9, 0.01), Identity(), ThermalLoss(0.8), IDENTITY],
        [ThermalLoss(0.95), IDENTITY, IDENTITY, ThermalLoss(0.7, 0.2), Identity()],
        ["user", "repeater", "repeater", "repeater", "user"],
        [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (0, 2, 4), (1, 3, 5), (2, 4, 0)],
        [FibreParams(10.0), FibreParams(20.0, 0.03, 0.0), ThermalLoss(0.5, 0.002), FibreParams(5.5, nbar_B=0.01),
         IDENTITY, ThermalLoss(0.25)],
        users=("a", "e"), family="tl"),
    "ad-channels-and-fibres": lambda: _columns(
        "abcd", [AmplitudeDamping(0.1), IDENTITY, AmplitudeDamping(0.3), IDENTITY],
        [IDENTITY, AmplitudeDamping(0.2), IDENTITY, IDENTITY], ["user", "repeater", "repeater", "user"],
        [(0, 1, 1), (1, 2, 0), (2, 3, 2), (0, 3, 1)],
        [AmplitudeDamping(0.4), FibreParams(3.0), FibreParams(1e-300, 1e300, 5e-324)], users=("a", "d")),
    "awkward-names": lambda: _columns(
        ["caf\u00e9 \u5317", 'say "hi"', "back\\slash/", "ctl\x00\x1f\n\t\x7f", "\u2028\U0001f600", ""],
        [IDENTITY] * 6, [IDENTITY] * 6, ["user", "repeater", "boss", "repeater", "r\u00f4le", "user"],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)], [FibreParams(1.0)],
        users=("caf\u00e9 \u5317", ""), family="t\u00eal"),
    "negative-zeros-and-ints": lambda: _columns(
        [f"n{i}" for i in range(8)], [*AD_TWINS, *reversed(AD_TWINS)], [*reversed(AD_TWINS), *AD_TWINS],
        ["repeater"] * 8,
        [(i, i + 1, i % 4) for i in range(7)],
        [FibreParams(-0.0, 1, 0), FibreParams(0.0, 1.0, 0.0), FibreParams(2, 0.02, -0.0), AmplitudeDamping(-0.0)]),
    "thermal-twins": lambda: _columns(
        "wxyz", TL_TWINS, TL_TWINS[::-1], ["user", "repeater", "repeater", "user"],
        [(0, 1, 0), (1, 2, 1), (2, 3, 0)], [TL_TWINS[1], TL_TWINS[0]], users=("w", "z"), family="tl"),
    "fibre-chain": lambda: _columns(
        [f"c{i}" for i in range(41)], [IDENTITY] * 41, [ThermalLoss(0.9, 0.001 * i) for i in range(41)],
        ["user", *["repeater"] * 39, "user"], [(i, i + 1, i) for i in range(40)],
        [FibreParams(random.Random(i).uniform(0.0, 100.0), 0.02 + i / 1000, i / 7) for i in range(40)],
        users=("c0", "c40")),
    "unknown-endpoint-no-users": lambda: _columns(
        ["a", "b", "ghost"], [IDENTITY] * 2, [IDENTITY] * 2, ["repeater"] * 2,
        [(0, 2, 0), (1, 1, 0)], [FibreParams(4.0)]),
    "empty": lambda: _columns([], [], [], [], [], []),
}


@pytest.mark.parametrize("name", WRITER_GRAPHS)
def test_network_json_is_the_reference_document_dumped(name, reference_json):
    graph = WRITER_GRAPHS[name]()
    text = network_to_json(graph)
    assert text == json.dumps(reference_json(graph), allow_nan=False)
    assert text.isascii() and "\n" not in text


@pytest.mark.parametrize("change", [
    {"recv": (ThermalLoss(0.5, math.inf), IDENTITY)},
    {"send": (IDENTITY, ThermalLoss(0.5, math.inf))},
    {"classes": (FibreParams(math.inf),)},
    {"classes": (FibreParams(1.0, 0.02, math.inf),)},
])
def test_network_json_refuses_non_finite_numbers(change, reference_json):
    graph = _columns("ab", [IDENTITY] * 2, [IDENTITY] * 2, ["user"] * 2, [(0, 1, 0)], [FibreParams(1.0)],
                     users=("a", "b"), family="tl")._replace(**change)
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(reference_json(graph), allow_nan=False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        network_to_json(graph)


def test_network_json_round_trip():
    g = _graph(_doc(
        [{"id": "a", "role": "user"},
         {"id": "b", "recv": {"kind": "tl", "tau": 0.9, "nbar": 0.01}, "send": {"kind": "tl", "tau": 0.95}},
         {"id": "c", "role": "user"}],
        [_e("a", "b", channel={"kind": "tl", "tau": 0.5, "nbar": 0.002}),
         _e("b", "c", fibre={"length_km": 50.0, "gamma": 0.02, "nbar_B": 0.001})],
        users=("a", "c"),
        family="tl",
    ))
    loaded, violations = load_network(network_to_json(g))
    assert violations == []
    assert loaded == g
    assert loaded.users == g.users
    assert loaded.family == "tl"
    assert loaded.nodes["b"].recv == ThermalLoss(0.9, 0.01)
    assert loaded.classes[loaded.cls[1]] == FibreParams(50.0, gamma=0.02, nbar_B=0.001)


def test_network_json_gives_each_edge_its_own_source_object():
    graph = generate(WrnSpec("manhattan8", 2, 10.0, "tl"))
    data = json.loads(network_to_json(graph))
    data["edges"][0]["fibre"]["length_km"] = 30.0
    assert data["edges"][1]["fibre"]["length_km"] == 10.0
    loaded, violations = load_network(json.dumps(data))
    assert violations == []
    assert loaded.classes == (FibreParams(30.0), FibreParams(10.0))
    assert loaded.cls == (0,) + (1,) * (len(graph.a) - 1)
    assert json.loads(network_to_json(graph))["edges"][0]["fibre"]["length_km"] == 10.0


@pytest.mark.parametrize("change, message", [
    ({"a": (0, 3)}, "column a must hold numbers 0 to 2"),
    ({"b": (1, -1)}, "column b must hold numbers 0 to 2"),
    ({"cls": (0, 1)}, "column cls must hold numbers 0 to 0"),
    ({"cls": (-1, 0)}, "column cls must hold numbers 0 to 0"),
    ({"a": (0, 1, 0)}, "an a, b and cls per edge"),
    ({"cls": (0,)}, "an a, b and cls per edge"),
    ({"role": ("user", "repeater")}, "a recv, send, role and name per node"),
    ({"names": ("a", "b")}, "a recv, send, role and name per node"),
])
def test_network_graph_rejects_columns_that_do_not_agree(change, message):
    graph = _graph(_doc(["a", "b", "c"], [_e("a", "b"), _e("b", "c")]))
    assert (graph.a, graph.b, graph.cls) == ((0, 1), (1, 2), (0, 0))
    with pytest.raises(DomainError, match=message):
        graph._replace(**change)


def test_load_network_collects_violations():
    loaded, violations = load_network('{"nodes": [], "edges": []}')
    assert "users: required" in violations
    loaded, violations = load_network(json.dumps(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"a": "a", "b": "b", "channel": {"kind": "pl", "eta": 0.5}}],
            "users": ["a", "b"],
        }
    ))
    assert violations == []
    assert loaded.classes[loaded.cls[0]] == ThermalLoss(0.5)


def test_load_network_shares_the_fibre_of_a_lattice():
    graph = _loaded(generate(WrnSpec("manhattan8", 3, 10.0, "tl")))
    assert graph.classes == (FibreParams(10.0),)
    assert set(graph.cls) == {0}


def _load_each_fibre(data):
    """Each edge of ``data`` loaded as a one-edge document of its own, so no
    fibre is parsed through another edge's: the violations in edge order,
    and the class of each edge that loads."""
    violations, fibres = [], []
    for edge in data["edges"]:
        graph, found = load_network(json.dumps({**data, "nodes": [{"id": edge["a"]}, {"id": edge["b"]}],
                                                "edges": [edge], "users": [edge["a"], edge["b"]]}))
        violations += found
        fibres += [graph.classes[c] for c in graph.cls]
    return violations, fibres


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
        {"length_km": 10.0, "gamma": 0.03},
    ]
    ids = [f"n{i}" for i in range(len(fibres) + 1)]
    data = {
        "family": "tl",
        "nodes": [{"id": i} for i in ids],
        "edges": [{"a": a, "b": b, "fibre": f} for a, b, f in zip(ids, ids[1:], fibres)],
        "users": [ids[0], ids[-1]],
    }
    graph, violations = load_network(json.dumps(data))
    expected, parsed = _load_each_fibre(data)
    assert violations == expected == [
        "edge n0-n1: fibre needs a 'length_km'",
        "edge n5-n6: fibre needs a 'length_km'",
        "edge n7-n8: could not convert string to float: 'x'",
        "edge n9-n10: fibre length must be >= 0 km, got -1.0",
        "edge n15-n16: fibre needs a 'length_km'",
    ]
    assert [graph.classes[c] for c in graph.cls] == parsed
    assert len(graph.a) == len(fibres) - 5
    # Equal fibres share one class, across the malformed fibres between them
    # and across runs of other fibres; an integer length and the default gamma
    # are the same fibre as a float length and an explicit 0.02.
    assert graph.classes == (FibreParams(10.0), FibreParams(25.0, nbar_B=0.0), FibreParams(5.0),
                             FibreParams(10.0, gamma=0.03))
    assert graph.cls == (0, 0, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 3)


@pytest.mark.parametrize("field,value", [(field, value) for field in ("length_km", "gamma", "nbar_B")
                                         for value in (True, False)])
def test_load_network_refuses_a_boolean_fibre_field(field, value):
    # The edge before it holds the float that the boolean equals, and hashes
    # as: the boolean must not reach float() or the class memo.
    same = {"length_km": 5.0, field: float(value)}
    boolean = {"length_km": 5.0, field: value}
    doc = _doc(["a", "b", "c"], [_e("a", "b", fibre=same), _e("b", "c", fibre=boolean)], users=("a", "c"), family="tl")
    graph, violations = load_network(json.dumps(doc))
    assert violations[-1] == f"edge b-c: fibre fields must be numbers, got {boolean!r}"
    assert (1, 2) not in zip(graph.a, graph.b)
    assert all(type(x) is float for c in graph.classes for x in c)


def _hetero_doc(cell: str, radius: int, fam: str, seed: int) -> dict:
    """A generated lattice with a distinct fibre per edge and a distinct device per node."""
    rng = random.Random(seed)
    doc = json.loads(network_to_json(generate(WrnSpec(cell, radius, 10.0, fam))))

    def device():
        if fam == "ad":
            return {"kind": "ad", "p": rng.uniform(0.0, 0.2)}
        return {"kind": "tl", "tau": rng.uniform(0.8, 1.0), "nbar": rng.uniform(0.0, 0.02)}

    for node in doc["nodes"]:
        node["recv"], node["send"] = device(), device()
    for edge in doc["edges"]:
        edge["fibre"] = {"length_km": rng.uniform(1.0, 40.0), "gamma": 0.02, "nbar_B": 0.002}
    return doc


def _chain(hops: int, seed: int) -> dict:
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(hops + 1)]
    return _doc(names, [_e(u, v, fibre={"length_km": rng.uniform(1.0, 20.0)}) for u, v in zip(names, names[1:])],
                users=(names[0], names[-1]), family="tl")


@pytest.mark.parametrize("build,args", [
    (_hetero_doc, ("manhattan8", 20, "tl", 3)), (_hetero_doc, ("triangular6", 10, "ad", 4)),
    (_hetero_doc, ("manhattan8", 3, "tl", 5)), (_chain, (2000, 6)),
], ids=["manhattan8-r20", "triangular6-r10", "manhattan8-r3", "chain2000"])
def test_read_network_is_load_network_of_json_loads(build, args):
    doc = build(*args)
    text = json.dumps(doc)
    graph, violations = load_network(text)
    assert violations == []
    assert (graph, violations) == network._load_json(text)
    assert load_network(json.dumps(doc, indent=2)) == (graph, violations)


_NODES = '[{"id": "a", "role": "user"}, {"id": "b", "role": "user"}]'
_EDGES = '[{"a": "a", "b": "b", "fibre": {"length_km": 5.0}}]'


# Texts that are not JSON, each wrong in one place that the reader checks.
@pytest.mark.parametrize("text", [
    f', "nodes": {_NODES}, "edges": {_EDGES}}}',
    f'{{"nodes" , {_NODES}, "edges": {_EDGES}}}',
    f'{{"nodes": , {_NODES[1:]}, "edges": {_EDGES}}}',
    f'{{"nodes": {_NODES}, "edges": {_EDGES}, 7: 0}}',
    f'{{"nodes": {_NODES[:-1]}}}, "edges": {_EDGES}}}',
    f'{{"nodes": {_NODES}, "edges": {_EDGES}}} {{}}',
    f'{{"nodes": {_NODES}, "edges": {_EDGES}, }}',
    f'{{"nodes": {_NODES}, "edges": {_EDGES}',
    f'{{"nodes": {_NODES}, "edges": {_EDGES}]',
    f'{{"nodes": {_NODES}: "edges": {_EDGES}}}',
    f'{{"nodes": {_NODES.replace("}, {", "}: {")}, "edges": {_EDGES}}}',
])
def test_read_network_raises_what_json_loads_raises(text):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as raised:
        load_network(text)
    assert str(raised.value) == str(expected.value)


def test_load_network_rejects_garbage():
    _, violations = load_network("[1, 2, 3]")
    assert violations
    _, violations = load_network('{"nodes": "x", "edges": []}')
    assert violations
    _, violations = load_network(json.dumps(
        {
            "nodes": [{"id": "a"}, {"id": "a"}],
            "edges": [],
            "users": ["a", "a"],
        }
    ))
    assert any("duplicate" in v for v in violations)


def test_bounded_from_values_shapes():
    bg = bounded_from_values([("x", "y", 0.2, 0.4)], users=("x", "y"))
    assert isinstance(bg, BoundedGraph)
    assert bg.lower[0] == 0.2
    assert bg.upper[0] == 0.4


# The violation lists ``load_network`` gave for these documents when a network
# was still one object per edge, recorded then; the column parse keeps them.
VIOLATION_CORPUS = {
    "unknown-endpoint": (
        _doc(["a", "b"], [_e("a", "q"), _e("q", "b"), _e("a", "b")]),
        ["edge a-q: unknown endpoint 'q'", "edge q-b: unknown endpoint 'q'"],
    ),
    "self-loop": (
        _doc(["a", "b"], [_e("a", "a"), _e("a", "b")]),
        ["edge a-a: self-loops are not allowed"],
    ),
    "reversed-parallel": (
        _doc(["a", "b", "c"], [_e("a", "b"), _e("b", "c"), _e("b", "a"), _e("c", "b"), _e("a", "b")]),
        ["edge b-a: parallel edges are not allowed", "edge c-b: parallel edges are not allowed",
         "edge a-b: parallel edges are not allowed"],
    ),
    "stray-loop-and-parallel": (
        _doc(["a", "b"], [_e("q", "q"), _e("a", "q"), _e("q", "a"), _e("z", "a"), _e("a", "b")]),
        ["edge q-q: unknown endpoint 'q'", "edge q-q: self-loops are not allowed",
         "edge a-q: unknown endpoint 'q'", "edge q-a: unknown endpoint 'q'",
         "edge q-a: parallel edges are not allowed", "edge z-a: unknown endpoint 'z'"],
    ),
    "duplicate-node": (
        _doc(["a", "b", "a", {"id": "b", "role": "user"}], [_e("a", "b")]),
        ["node 'a': duplicate id", "node 'b': duplicate id"],
    ),
    "non-object-edge": (
        _doc(["a", "b"], [_e("a", "b"), [1, 2], "a-b", {"a": "a"}, None]),
        [f"edge #{i}: object with endpoints 'a' and 'b' required" for i in range(1, 5)],
    ),
    "fibre-without-length": (
        _doc(["a", "b", "c"], [_e("a", "b", fibre={"gamma": 0.02}), _e("b", "c", fibre=[5.0]),
                               _e("a", "c", fibre={"length_km": 5.0})], users=("a", "c")),
        ["edge a-b: fibre needs a 'length_km'", "edge b-c: fibre needs a 'length_km'",
         "channel family is ambiguous; declare 'ad' or 'tl' on the graph"],
    ),
    "huge-integer": (
        _doc(["a", "b", "c"], [_e("a", "b", fibre={"length_km": HUGE_INT}),
                               _e("b", "c", channel={"kind": "tl", "tau": HUGE_INT}),
                               _e("a", "c", fibre={"length_km": 1.0, "nbar_B": HUGE_INT})], users=("a", "c")),
        ["edge a-b: int too large to convert to float",
         f"edge b-c: bad channel field in {{'kind': 'tl', 'tau': {HUGE_INT}}}: int too large to convert to float",
         "edge a-c: int too large to convert to float",
         "channel family is ambiguous; declare 'ad' or 'tl' on the graph"],
    ),
    "huge-integer-node": (
        _doc([{"id": "a", "send": {"kind": "ad", "p": HUGE_INT}}, "b"], [_e("a", "b")]),
        [f"node 'a': bad channel field in {{'kind': 'ad', 'p': {HUGE_INT}}}: int too large to convert to float",
         "users: unknown node 'a'", "edge a-b: unknown endpoint 'a'"],
    ),
    "missing-users": (_doc(["a", "b"], [_e("a", "b")], users=None), ["users: required"]),
    "bad-users": (
        _doc(["a", "b"], [_e("a", "b")], users=("a",)),
        ["users: exactly two node ids required", "users: required"],
    ),
    "unknown-and-equal-users": (
        _doc(["a", "b"], [_e("a", "b")], users=("z", "z")),
        ["users: end users must be two distinct nodes", "users: unknown node 'z'"],
    ),
    "role-mismatch": (
        _doc([{"id": "a", "role": "user"}, "b", {"id": "c", "role": "user"}], [_e("a", "b"), _e("b", "c")]),
        ["node 'c': role 'user' but not an end user"],
    ),
    "bad-role": (
        _doc([{"id": "a", "role": "boss"}, "b"], [_e("a", "b")]),
        ["node 'a': node role must be 'repeater' or 'user', got 'boss'", "users: unknown node 'a'",
         "edge a-b: unknown endpoint 'a'"],
    ),
    "family-mismatch": (
        _doc(["a", "b", "c"], [_e("a", "b"), _e("b", "c", channel={"kind": "ad", "p": 0.1})], users=("a", "c")),
        ["family mismatch: graph mixes amplitude-damping and thermal-loss channels"],
    ),
    "declared-family-mismatch": (
        _doc(["a", "b"], [_e("a", "b")], family="ad"),
        ["family mismatch: declared 'ad' but channels are 'tl'"],
    ),
    "unknown-family": (
        _doc(["a", "b"], [_e("a", "b")], family="xx"),
        ["family: must be 'ad' or 'tl', got 'xx'", "family mismatch: declared 'xx' but channels are 'tl'"],
    ),
    "ambiguous-family": (
        _doc(["a", "b"], [_e("a", "b", fibre={"length_km": 1.0})]),
        ["channel family is ambiguous; declare 'ad' or 'tl' on the graph"],
    ),
    "no-lists": (
        {"nodes": "x", "edges": {}},
        ["nodes: required", "edges: required", "users: required",
         "channel family is ambiguous; declare 'ad' or 'tl' on the graph"],
    ),
    "not-an-object": ([1, 2, 3], ["network: top-level object required"]),
    "everything": (
        _doc([{"id": "a", "role": "user"}, "b", "b", {"id": "c", "role": "user"}, {"x": 1}],
             [_e("a", "a"), _e("a", "q"), _e("b", "a"), _e("a", "b"), _e("b", "c", fibre={}),
              _e("c", "b", channel={"kind": "ad", "p": 0.2}), 7, _e("a", "c", fibre={"length_km": -1})],
             users=("a", "z"), family="tl"),
        ["node 'b': duplicate id", "node #4: object with an 'id' required",
         "edge b-c: fibre needs a 'length_km'", "edge #6: object with endpoints 'a' and 'b' required",
         "edge a-c: fibre length must be >= 0 km, got -1.0", "users: unknown node 'z'",
         "node 'c': role 'user' but not an end user", "edge a-a: self-loops are not allowed",
         "edge a-q: unknown endpoint 'q'", "edge a-b: parallel edges are not allowed",
         "family mismatch: graph mixes amplitude-damping and thermal-loss channels"],
    ),
}


@pytest.mark.parametrize("name", VIOLATION_CORPUS)
def test_load_network_violation_corpus(name):
    doc, expected = VIOLATION_CORPUS[name]
    graph, violations = load_network(json.dumps(doc))
    assert violations == expected
    assert (graph is None) == (name == "not-an-object")
    if graph is not None:
        assert set(validate(graph)) <= set(expected)


# Round trip: documents with duplicate nodes, unknown endpoints, bad roles,
# repeated and malformed sources, and fibres that transmit nothing.
IDS = st.sampled_from(["a", "b", "c", "d", "q", 7])
DEVICES = st.sampled_from([
    {"kind": "tl", "tau": 0.9, "nbar": 0.01}, {"kind": "pl", "eta": 0.8}, {"kind": "ad", "p": 0.05},
    {"kind": "id"}, {"kind": "tl", "tau": 0.0},
])
LENGTHS = st.one_of(st.floats(0.0, 1e5), st.sampled_from([-0.0, 10, 2e4, math.inf, -1.0]))
SOURCES = st.one_of(
    st.builds(lambda d: {"fibre": {"length_km": d}}, LENGTHS),
    st.builds(lambda d, g, n: {"fibre": {"length_km": d, "gamma": g, "nbar_B": n}},
              LENGTHS, st.sampled_from([0.02, 0.2, 0.0]), st.sampled_from([0.002, 0.0])),
    st.builds(lambda tau: {"channel": {"kind": "tl", "tau": tau, "nbar": 0.001}}, st.floats(0.0, 1.0)),
    st.sampled_from([{"channel": {"kind": "id"}}, {"channel": {"kind": "ad", "p": 0.3}}, {"fibre": {}}]),
)
NODES = st.fixed_dictionaries({"id": IDS}, optional={
    "recv": DEVICES, "send": DEVICES, "role": st.sampled_from(["repeater", "user", "boss"])})
EDGES = st.builds(lambda a, b, source: {"a": a, "b": b, **source}, IDS, IDS, SOURCES)
DOCS = st.fixed_dictionaries(
    {"nodes": st.lists(NODES, max_size=6), "edges": st.lists(EDGES, max_size=10)},
    optional={"users": st.lists(IDS, min_size=1, max_size=3), "family": st.sampled_from(["ad", "tl", "xx"])},
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(DOCS)
def test_network_json_round_trips_to_the_same_columns_and_bytes(reference_json, doc):
    graph, _ = load_network(json.dumps(doc))
    if any(c.length_km == math.inf for c in graph.classes if isinstance(c, FibreParams)):
        with pytest.raises(ValueError, match="not JSON compliant"):  # a network file holds finite numbers
            network_to_json(graph)
        return
    text = network_to_json(graph)
    assert text == json.dumps(reference_json(graph))
    again, _ = load_network(text)
    assert again == graph  # every column and the class table
    assert network_to_json(again) == text

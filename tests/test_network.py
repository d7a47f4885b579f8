import json

import pytest

from qnetcap.bounds import oriented_edge_bounds
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
    min_neighbourhood_capacity,
    network_to_json,
    resolved_family,
    validate,
)
from qnetcap.oracles import bounded_from_values


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
    assert bg.edges[0].bounds == direct
    assert bg.edges[1].bounds.lower <= bg.edges[1].bounds.upper


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


def test_annotate_uniform():
    g = two_node_graph()
    bg = annotate_uniform(g, 0.7)
    assert all(e.bounds.lower == 0.7 and e.bounds.upper == 0.7 for e in bg.edges)
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
    assert bg.edges[0].value("lower") == 0.2
    assert bg.edges[0].value("upper") == 0.4

"""Undirected network graphs, edge-bound annotation, and user-isolation cuts.

A NetworkGraph carries node specs (with internal device channels), undirected
edges given either as an explicit channel or as fibre parameters, and the pair
of end users. ``apply_split`` turns it into a BoundedGraph by wrapping every
edge in its endpoints' internal channels and evaluating the capacity bound
functions, orientation-optimized per edge.

The min-neighbourhood capacity is the multi-edge capacity of the cut that
isolates one end user: the smaller of the two users' incident-edge value sums.
It upper-bounds the flooding (max-flow) capacity because it is itself a cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bounds import BoundKind, EdgeBounds, oriented_edge_bounds
from .channels import (
    FAMILY_AD,
    FAMILY_TL,
    ChannelSpec,
    FibreParams,
    Identity,
    NodeSpec,
    channel_from_json,
    channel_to_json,
    family,
    fibre_channel,
)
from .errors import DomainError, FamilyError, NodeNotFoundError, ValidationError

SELECTORS = ("lower", "upper")


def check_selector(selector: str) -> str:
    if selector not in SELECTORS:
        raise DomainError(f"selector must be 'lower' or 'upper', got {selector!r}")
    return selector


@dataclass(frozen=True)
class Edge:
    """Undirected edge given by an explicit channel or by fibre parameters."""

    a: str
    b: str
    channel: ChannelSpec | None = None
    fibre: FibreParams | None = None

    def __post_init__(self):
        if (self.channel is None) == (self.fibre is None):
            raise DomainError(f"edge {self.a}-{self.b} needs exactly one of channel or fibre")

    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def resolve(self, fam: str) -> ChannelSpec:
        if self.channel is not None:
            return self.channel
        return fibre_channel(self.fibre, fam)


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable network description; build once and share freely."""

    nodes: Mapping[str, NodeSpec]
    edges: tuple[Edge, ...]
    users: tuple[str, str] | None = None
    family: str | None = None


@dataclass(frozen=True)
class BoundedEdge:
    a: str
    b: str
    bounds: EdgeBounds

    def value(self, selector: str) -> float:
        check_selector(selector)
        return self.bounds.lower if selector == "lower" else self.bounds.upper

    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class BoundedGraph:
    nodes: tuple[str, ...]
    edges: tuple[BoundedEdge, ...]
    users: tuple[str, str]


@dataclass(frozen=True)
class Cut:
    """Bipartition of the node set separating the two end users."""

    a_side: frozenset
    b_side: frozenset
    edges: tuple[tuple[str, str], ...]


def _observed_families(graph: NetworkGraph) -> set[str]:
    found = set()
    for spec in graph.nodes.values():
        for ch in (spec.recv, spec.send):
            fam = family(ch)
            if fam:
                found.add(fam)
    for edge in graph.edges:
        if edge.channel is not None:
            fam = family(edge.channel)
            if fam:
                found.add(fam)
    return found


def resolved_family(graph: NetworkGraph) -> str:
    """The single channel family of the graph, declared or inferred."""
    found = _observed_families(graph)
    if len(found) > 1:
        raise FamilyError("family mismatch: graph mixes amplitude-damping and thermal-loss channels")
    if found:
        fam = found.pop()
        if graph.family is not None and graph.family != fam:
            raise FamilyError(f"family mismatch: declared {graph.family!r} but channels are {fam!r}")
        return fam
    if graph.family in (FAMILY_AD, FAMILY_TL):
        return graph.family
    raise FamilyError("channel family is ambiguous; declare 'ad' or 'tl' on the graph")


def validate(graph: NetworkGraph) -> list[str]:
    """Structural invariant check; returns violations (empty means ok), never raises."""
    violations = []
    if graph.users is None:
        violations.append("users: required")
    else:
        alpha, beta = graph.users
        if alpha == beta:
            violations.append("users: end users must be two distinct nodes")
        for uid in graph.users:
            if uid not in graph.nodes:
                violations.append(f"users: unknown node {uid!r}")
    user_set = set(graph.users or ())
    for node_id, spec in graph.nodes.items():
        if spec.id != node_id:
            violations.append(f"node {node_id!r}: key does not match spec id {spec.id!r}")
        if spec.role == "user" and node_id not in user_set:
            violations.append(f"node {node_id!r}: role 'user' but not an end user")
    seen = set()
    for edge in graph.edges:
        for end in edge.endpoints():
            if end not in graph.nodes:
                violations.append(f"edge {edge.a}-{edge.b}: unknown endpoint {end!r}")
        if edge.a == edge.b:
            violations.append(f"edge {edge.a}-{edge.b}: self-loops are not allowed")
        if edge.key() in seen:
            violations.append(f"edge {edge.a}-{edge.b}: parallel edges are not allowed")
        seen.add(edge.key())
    if graph.family is not None and graph.family not in (FAMILY_AD, FAMILY_TL):
        violations.append(f"family: must be 'ad' or 'tl', got {graph.family!r}")
    try:
        resolved_family(graph)
    except FamilyError as exc:
        violations.append(str(exc))
    return violations


def apply_split(graph: NetworkGraph) -> BoundedGraph:
    """Annotate every edge with orientation-optimized capacity bounds.

    The graph's one channel family is resolved once and passed down to every
    edge. Deterministic and idempotent.
    """
    violations = validate(graph)
    if violations:
        raise ValidationError(violations)
    fam = resolved_family(graph)
    annotated = []
    for edge in graph.edges:
        channel = edge.resolve(fam)
        b = oriented_edge_bounds(channel, graph.nodes[edge.a], graph.nodes[edge.b], fam)
        annotated.append(BoundedEdge(edge.a, edge.b, b))
    return BoundedGraph(tuple(graph.nodes), tuple(annotated), graph.users)


def neighbourhood_edges(graph: NetworkGraph, node_id: str) -> list[Edge]:
    """Edges incident to the node."""
    if node_id not in graph.nodes:
        raise NodeNotFoundError(node_id)
    return [e for e in graph.edges if node_id in e.endpoints()]


def min_neighbourhood_capacity(bg: BoundedGraph, selector: str) -> float:
    """Value of the cheaper of the two user-isolating cuts."""
    check_selector(selector)
    best = None
    for user in bg.users:
        total = sum(e.value(selector) for e in bg.edges if user in (e.a, e.b))
        best = total if best is None else min(best, total)
    return best


def annotate_uniform(graph: NetworkGraph, value: float) -> BoundedGraph:
    """BoundedGraph with every edge at the same exact value (lower == upper)."""
    if value < 0.0:
        raise DomainError(f"edge value must be >= 0, got {value}")
    if graph.users is None:
        raise ValidationError(["users: required"])
    edges = tuple(
        BoundedEdge(
            e.a,
            e.b,
            EdgeBounds(value, value, (e.a, e.b), (e.a, e.b), BoundKind.PLOB_EXACT, BoundKind.PLOB_EXACT),
        )
        for e in graph.edges
    )
    return BoundedGraph(tuple(graph.nodes), edges, graph.users)


def bounded_from_values(
    edge_values: Iterable[tuple], users: tuple[str, str]
) -> BoundedGraph:
    """Build a BoundedGraph from (a, b, value) or (a, b, lower, upper) rows."""
    nodes: dict[str, None] = {}
    edges = []
    for row in edge_values:
        if len(row) == 3:
            a, b, lo = row
            up = lo
        else:
            a, b, lo, up = row
        nodes.setdefault(a)
        nodes.setdefault(b)
        edges.append(
            BoundedEdge(a, b, EdgeBounds(lo, up, (a, b), (a, b), BoundKind.PLOB_EXACT, BoundKind.PLOB_EXACT))
        )
    for user in users:
        nodes.setdefault(user)
    return BoundedGraph(tuple(nodes), tuple(edges), users)


def network_to_json(graph: NetworkGraph) -> dict:
    nodes = []
    for node_id, spec in graph.nodes.items():
        entry: dict = {"id": node_id}
        if not isinstance(spec.recv, Identity):
            entry["recv"] = channel_to_json(spec.recv)
        if not isinstance(spec.send, Identity):
            entry["send"] = channel_to_json(spec.send)
        entry["role"] = spec.role
        nodes.append(entry)
    edges = []
    for edge in graph.edges:
        entry = {"a": edge.a, "b": edge.b}
        if edge.channel is not None:
            entry["channel"] = channel_to_json(edge.channel)
        else:
            entry["fibre"] = {
                "length_km": edge.fibre.length_km,
                "gamma": edge.fibre.gamma,
                "nbar_B": edge.fibre.nbar_B,
            }
        edges.append(entry)
    data = {"nodes": nodes, "edges": edges}
    if graph.users is not None:
        data["users"] = list(graph.users)
    if graph.family is not None:
        data["family"] = graph.family
    return data


def load_network(data) -> tuple[NetworkGraph | None, list[str]]:
    """Parse a network JSON object, collecting violations instead of raising.

    Returns (graph, violations); the graph is None only when the input is too
    malformed to build one at all.
    """
    violations: list[str] = []
    if not isinstance(data, dict):
        return None, ["network: top-level object required"]
    nodes: dict[str, NodeSpec] = {}
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list):
        violations.append("nodes: required")
        raw_nodes = []
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict) or "id" not in raw:
            violations.append(f"node #{i}: object with an 'id' required")
            continue
        node_id = str(raw["id"])
        if node_id in nodes:
            violations.append(f"node {node_id!r}: duplicate id")
            continue
        recv: ChannelSpec = Identity()
        send: ChannelSpec = Identity()
        try:
            if "recv" in raw:
                recv = channel_from_json(raw["recv"])
            if "send" in raw:
                send = channel_from_json(raw["send"])
            nodes[node_id] = NodeSpec(
                node_id, recv=recv, send=send, role=str(raw.get("role", "repeater"))
            )
        except DomainError as exc:
            violations.append(f"node {node_id!r}: {exc}")
    edges: list[Edge] = []
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        violations.append("edges: required")
        raw_edges = []
    for i, raw in enumerate(raw_edges):
        if not isinstance(raw, dict) or "a" not in raw or "b" not in raw:
            violations.append(f"edge #{i}: object with endpoints 'a' and 'b' required")
            continue
        a, b = str(raw["a"]), str(raw["b"])
        has_channel = "channel" in raw
        has_fibre = "fibre" in raw
        if has_channel == has_fibre:
            violations.append(f"edge {a}-{b}: exactly one of 'channel' or 'fibre' required")
            continue
        try:
            if has_channel:
                edges.append(Edge(a, b, channel=channel_from_json(raw["channel"])))
            else:
                fibre_raw = raw["fibre"]
                if not isinstance(fibre_raw, dict) or "length_km" not in fibre_raw:
                    violations.append(f"edge {a}-{b}: fibre needs a 'length_km'")
                    continue
                edges.append(
                    Edge(
                        a,
                        b,
                        fibre=FibreParams(
                            length_km=float(fibre_raw["length_km"]),
                            gamma=float(fibre_raw.get("gamma", 0.02)),
                            nbar_B=float(fibre_raw.get("nbar_B", 0.002)),
                        ),
                    )
                )
        except (DomainError, TypeError, ValueError) as exc:
            violations.append(f"edge {a}-{b}: {exc}")
    users = None
    if "users" in data:
        raw_users = data["users"]
        if isinstance(raw_users, list) and len(raw_users) == 2:
            users = (str(raw_users[0]), str(raw_users[1]))
        else:
            violations.append("users: exactly two node ids required")
    fam = data.get("family")
    if fam is not None:
        fam = str(fam)
    graph = NetworkGraph(nodes=nodes, edges=tuple(edges), users=users, family=fam)
    violations.extend(validate(graph))
    # Deduplicate while keeping first-seen order.
    seen = set()
    unique = []
    for v in violations:
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return graph, unique

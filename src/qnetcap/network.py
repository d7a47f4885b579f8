"""Undirected network graphs, their JSON form, validation and edge-bound annotation.

A NetworkGraph carries node specs (with internal device channels), undirected
edges given either as an explicit channel or as fibre parameters, and the pair
of end users. ``apply_split`` turns it into a BoundedGraph by wrapping every
edge in its endpoints' internal channels and evaluating the capacity bound
functions, orientation-optimized per edge. Everything computed on a
BoundedGraph lives in ``routing.py``; the per-edge reference that
``apply_split`` is tested against is ``oracles.oriented_edge_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .bounds import BOUND_ORDER_TOL, BoundKind, direction_bounds, family_native, orient
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
from .errors import DomainError, FamilyError, ValidationError

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
    # The resolved family, set by ``validate`` once it finds the graph valid.
    _valid_family: str | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class BoundedGraph:
    """A graph's edge bounds as columns, one entry per edge.

    Edge i joins node numbers ``a[i]`` and ``b[i]`` (indexes into ``nodes``);
    each side has its value, bound kind and sender, the node its chosen
    direction sends from. Construction is the one gate, raising DomainError
    unless every endpoint numbers a node and 0 <= lower <= upper (within
    ``BOUND_ORDER_TOL``). NaN and inf pass; ``routing.max_flow`` rejects them.
    """

    nodes: tuple[str, ...]
    users: tuple[str, str]
    a: tuple[int, ...]
    b: tuple[int, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lower_kind: tuple[BoundKind, ...]
    upper_kind: tuple[BoundKind, ...]
    lower_sender: tuple[int, ...]
    upper_sender: tuple[int, ...]

    def __post_init__(self):
        columns = (self.b, self.lower, self.upper, self.lower_kind, self.upper_kind,
                   self.lower_sender, self.upper_sender)
        if any(len(column) != len(self.a) for column in columns):
            raise DomainError("bounded graph columns must have one entry per edge")
        n = len(self.nodes)
        for i, (u, v, lower, upper) in enumerate(zip(self.a, self.b, self.lower, self.upper)):
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge #{i}: endpoints ({u}, {v}) must number nodes 0 to {n - 1}")
            if lower < 0.0:
                raise DomainError(f"lower bound must be >= 0, got {lower}")
            if upper < lower - BOUND_ORDER_TOL:
                raise DomainError(f"bounds out of order: lower {lower} > upper {upper}")

    def values(self, selector: str) -> tuple[float, ...]:
        """The ``lower`` or the ``upper`` column."""
        return self.lower if check_selector(selector) == "lower" else self.upper


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
    """Structural invariant check; returns violations (empty means ok), never raises.

    A graph found valid keeps its resolved family, so ``apply_split`` does not
    check it again.
    """
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
        key = edge.key()
        if key in seen:
            violations.append(f"edge {edge.a}-{edge.b}: parallel edges are not allowed")
        seen.add(key)
    if graph.family is not None and graph.family not in (FAMILY_AD, FAMILY_TL):
        violations.append(f"family: must be 'ad' or 'tl', got {graph.family!r}")
    try:
        fam = resolved_family(graph)
    except FamilyError as exc:
        violations.append(str(exc))
    else:
        if not violations:
            object.__setattr__(graph, "_valid_family", fam)
    return violations


def apply_split(graph: NetworkGraph) -> BoundedGraph:
    """Annotate every edge with orientation-optimized capacity bounds.

    A graph not yet found valid by ``validate`` is validated first. The
    graph's one channel family is resolved once and passed down to every edge.
    Repeated classes are bounded once: an edge whose fibre equals the previous
    edge's reuses its channel, and a direction whose family-native (send,
    edge, recv) numbers equal the previous direction's reuses its bounds.
    Orientation ids and ties are still decided per edge. Deterministic and
    idempotent.
    """
    if graph._valid_family is None:
        violations = validate(graph)
        if violations:
            raise ValidationError(violations)
    fam = graph._valid_family
    native = family_native(fam)
    number = {node_id: i for i, node_id in enumerate(graph.nodes)}
    ends = [(native(spec.send), native(spec.recv)) for spec in graph.nodes.values()]
    fibre = channel = key = values = None
    rows = []
    for edge in graph.edges:
        if edge.fibre is None or (edge.fibre is not fibre and edge.fibre != fibre):
            fibre, channel = edge.fibre, native(edge.resolve(fam))
        u, v = number[edge.a], number[edge.b]
        send_a, recv_a = ends[u]
        send_b, recv_b = ends[v]
        forward = (send_a, channel, recv_b)
        if forward != key:
            values, key = direction_bounds(fam, *forward), forward
        forward_values = values
        backward = (send_b, channel, recv_a)
        if backward != key:
            values, key = direction_bounds(fam, *backward), backward
        backward_values = values
        lower_back, upper_back = orient(edge.a, edge.b, forward_values, backward_values)
        lower, lower_kind, _, _ = backward_values if lower_back else forward_values
        _, _, upper, upper_kind = backward_values if upper_back else forward_values
        rows.append((u, v, lower, upper, lower_kind, upper_kind,
                     v if lower_back else u, v if upper_back else u))
    columns = tuple(zip(*rows)) or ((),) * 8
    return BoundedGraph(tuple(graph.nodes), graph.users, *columns)


def annotate_uniform(graph: NetworkGraph, value: float) -> BoundedGraph:
    """BoundedGraph with every edge at the same exact value; users are not checked."""
    if value < 0.0:
        raise DomainError(f"edge value must be >= 0, got {value}")
    if graph.users is None:
        raise ValidationError(["users: required"])
    number = {node_id: i for i, node_id in enumerate(graph.nodes)}
    for edge in graph.edges:
        for end in edge.endpoints():
            if end not in number:
                raise DomainError(f"edge {edge.a}-{edge.b}: unknown endpoint {end!r}")
    a = tuple(number[edge.a] for edge in graph.edges)
    b = tuple(number[edge.b] for edge in graph.edges)
    exact = (BoundKind.PLOB_EXACT,) * len(a)
    values = (value,) * len(a)
    return BoundedGraph(tuple(graph.nodes), graph.users, a, b, values, values, exact, exact, a, a)


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
    # One-entry memo: an edge whose raw fibre equals the last parsed one
    # reuses its FibreParams, so a run of equal fibres is built once.
    fibre_raw_prev = fibre = None
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
                if fibre is None or fibre_raw != fibre_raw_prev:
                    if not isinstance(fibre_raw, dict) or "length_km" not in fibre_raw:
                        violations.append(f"edge {a}-{b}: fibre needs a 'length_km'")
                        continue
                    fibre = FibreParams(
                        length_km=float(fibre_raw["length_km"]),
                        gamma=float(fibre_raw.get("gamma", 0.02)),
                        nbar_B=float(fibre_raw.get("nbar_B", 0.002)),
                    )
                    fibre_raw_prev = fibre_raw
                edges.append(Edge(a, b, fibre=fibre))
        except (DomainError, TypeError, ValueError, OverflowError) as exc:
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

"""Undirected network graphs, their JSON form, validation and edge-bound annotation.

A NetworkGraph holds, as columns, the nodes (names, internal device channels
and roles), the undirected edges as pairs of node numbers, each with a class
in a table of distinct fibres and explicit channels, and the pair of end
users. ``apply_split`` turns it into a BoundedGraph by wrapping every
edge in its endpoints' internal channels and evaluating the capacity bound
functions, orientation-optimized per edge. Everything computed on a
BoundedGraph lives in ``routing.py``; the per-edge reference that
``apply_split`` is tested against is ``oracles.oriented_edge_bounds``.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple

from .bounds import BOUND_ORDER_TOL, BoundKind, direction_bounds, family_native, orient
from .channels import (
    FAMILY_AD,
    FAMILY_TL,
    ChannelSpec,
    FibreParams,
    IDENTITY,
    Identity,
    NodeSpec,
    channel_from_json,
    channel_to_json,
    check_role,
    family,
)
from .errors import DomainError, FamilyError, ValidationError, checked

SELECTORS = ("lower", "upper")


def check_selector(selector: str) -> str:
    if selector not in SELECTORS:
        raise DomainError(f"selector must be 'lower' or 'upper', got {selector!r}")
    return selector


def _check_users(users) -> None:
    """DomainError unless ``users`` is a pair of node names."""
    if not (isinstance(users, tuple) and len(users) == 2 and all(isinstance(u, str) for u in users)):
        raise DomainError(f"users must be a pair of node names, got {users!r}")


# One edge by endpoint names, with its explicit channel or its fibre.
EdgeView = NamedTuple("EdgeView", [("a", str), ("b", str), ("channel", ChannelSpec | None),
                                   ("fibre", FibreParams | None)])


class _GraphColumns(NamedTuple):
    names: tuple[str, ...]
    recv: tuple[ChannelSpec, ...]
    send: tuple[ChannelSpec, ...]
    role: tuple[str, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    cls: tuple[int, ...]
    classes: tuple[FibreParams | ChannelSpec, ...]
    users: tuple[str, str] | None = None
    family: str | None = None


@checked
class NetworkGraph(_GraphColumns):
    """Immutable network description as columns; build once and share freely.

    Node i is named ``names[i]`` and has the channels ``recv[i]`` and
    ``send[i]`` and the role ``role[i]``. Names past the last node are
    endpoints that name no node, which only a graph that fails ``validate``
    has. Edge i joins node numbers ``a[i]`` and ``b[i]`` over
    ``classes[cls[i]]``, a FibreParams or an explicit channel; each distinct
    one is in the table once. Construction raises DomainError unless the
    columns agree in length, every number indexes ``names`` or ``classes``
    and ``users`` is None or a pair of names.
    The ``nodes`` and ``edges`` views rebuild one object per node or edge.
    """

    # The resolved family, which ``validate`` sets once it finds the graph
    # valid: the only attribute ever set on a graph. A ``_replace`` copy is
    # a new graph and is checked again.
    _valid_family: str | None = None

    def _check(self):
        m = len(self.names)
        if not len(self.recv) == len(self.send) == len(self.role) <= m:
            raise DomainError("network graph needs a recv, send, role and name per node")
        if not len(self.a) == len(self.b) == len(self.cls):
            raise DomainError("network graph needs an a, b and cls per edge")
        for what, column, size in (("a", self.a, m), ("b", self.b, m), ("cls", self.cls, len(self.classes))):
            if column and not (min(column) >= 0 and max(column) < size):
                raise DomainError(f"network graph column {what} must hold numbers 0 to {size - 1}")
        if self.users is not None:
            _check_users(self.users)

    @property
    def nodes(self) -> dict[str, NodeSpec]:
        """Each node as a NodeSpec, by name, built on demand."""
        return {name: NodeSpec(name, recv, send, role)
                for name, recv, send, role in zip(self.names, self.recv, self.send, self.role)}

    @property
    def edges(self) -> tuple[EdgeView, ...]:
        """Each edge as an EdgeView, built on demand."""
        names = self.names
        sources = [(None, c) if isinstance(c, FibreParams) else (c, None) for c in self.classes]
        return tuple(EdgeView(names[u], names[v], *sources[c]) for u, v, c in zip(self.a, self.b, self.cls))


@checked
class BoundedGraph(NamedTuple):
    """A graph's edge bounds as columns, one entry per edge.

    Edge i joins node numbers ``a[i]`` and ``b[i]`` (indexes into ``nodes``);
    each side has its value, bound kind and sender, the node its chosen
    direction sends from. Construction is the one gate, raising DomainError
    unless ``users`` is a pair of names, every endpoint numbers a node and
    0 <= lower <= upper (within ``BOUND_ORDER_TOL``). NaN and inf pass;
    ``routing.max_flow`` rejects them.
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

    def _check(self):
        columns = (self.b, self.lower, self.upper, self.lower_kind, self.upper_kind,
                   self.lower_sender, self.upper_sender)
        if any(len(column) != len(self.a) for column in columns):
            raise DomainError("bounded graph columns must have one entry per edge")
        _check_users(self.users)
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


class Cut(NamedTuple):
    """Bipartition of the node set separating the two end users."""

    a_side: frozenset
    b_side: frozenset
    edges: tuple[tuple[str, str], ...]


def resolved_family(graph: NetworkGraph) -> str:
    """The single channel family of the graph, declared or inferred."""
    explicit = (c for c in graph.classes if not isinstance(c, FibreParams))
    found = {family(ch) for ch in {*graph.recv, *graph.send, *explicit}} - {None}
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
    names, n = graph.names, len(graph.role)
    if graph.users is None:
        violations.append("users: required")
    else:
        if graph.users[0] == graph.users[1]:
            violations.append("users: end users must be two distinct nodes")
        for uid in graph.users:
            if uid not in names[:n]:
                violations.append(f"users: unknown node {uid!r}")
    user_set = set(graph.users or ())
    for node_id, role in zip(names, graph.role):
        if role == "user" and node_id not in user_set:
            violations.append(f"node {node_id!r}: role 'user' but not an end user")
    m, seen = len(names), set()  # an edge's key: smaller endpoint number * m + larger
    for u, v in zip(graph.a, graph.b):
        key = u * m + v if u < v else v * m + u
        if u >= n or v >= n or u == v or key in seen:
            edge = f"edge {names[u]}-{names[v]}"
            violations.extend(f"{edge}: unknown endpoint {names[end]!r}" for end in (u, v) if end >= n)
            if u == v:
                violations.append(f"{edge}: self-loops are not allowed")
            if key in seen:
                violations.append(f"{edge}: parallel edges are not allowed")
        seen.add(key)
    if graph.family is not None and graph.family not in (FAMILY_AD, FAMILY_TL):
        violations.append(f"family: must be 'ad' or 'tl', got {graph.family!r}")
    try:
        fam = resolved_family(graph)
    except FamilyError as exc:
        violations.append(str(exc))
    else:
        if not violations:
            graph._valid_family = fam
    return violations


def apply_split(graph: NetworkGraph) -> BoundedGraph:
    """Annotate every edge with orientation-optimized capacity bounds.

    A graph not yet found valid by ``validate`` is validated first, and its
    one channel family is resolved once. Each class is resolved to a
    family-native channel once. A direction whose family-native (send,
    channel, recv) equals the previous direction's reuses its bounds, so a
    lattice is bounded once. Orientation is decided per edge, whose entries
    go straight onto the six result columns. Deterministic and idempotent.
    """
    if graph._valid_family is None:
        violations = validate(graph)
        if violations:
            raise ValidationError(violations)
    fam = graph._valid_family
    native = family_native(fam)
    sends = list(map(native, graph.send))
    recvs = list(map(native, graph.recv))
    channels = list(map(native, graph.classes))

    names = graph.names
    columns = lower, upper, lower_kind, upper_kind, lower_sender, upper_sender = [], [], [], [], [], []
    key = values = None  # the last direction bounded, and its bounds
    for u, v, c in zip(graph.a, graph.b, graph.cls):
        c = channels[c]
        if (direction := (sends[u], c, recvs[v])) != key:
            key, values = direction, direction_bounds(fam, *direction)
        forward_values = values
        if (direction := (sends[v], c, recvs[u])) != key:
            key, values = direction, direction_bounds(fam, *direction)
        lower_back, upper_back = orient(names[u], names[v], forward_values, values)
        lower_values = values if lower_back else forward_values
        upper_values = values if upper_back else forward_values
        lower.append(lower_values[0])
        lower_kind.append(lower_values[1])
        upper.append(upper_values[2])
        upper_kind.append(upper_values[3])
        lower_sender.append(v if lower_back else u)
        upper_sender.append(v if upper_back else u)
    return BoundedGraph(names, graph.users, graph.a, graph.b, *map(tuple, columns))


def annotate_uniform(graph: NetworkGraph, value: float) -> BoundedGraph:
    """BoundedGraph with every edge at the same exact value; users are not checked."""
    if not value >= 0.0:
        raise DomainError(f"edge value must be >= 0, got {value}")
    if graph.users is None:
        raise ValidationError(["users: required"])
    names, n, a, b = graph.names, len(graph.role), graph.a, graph.b
    for u, v in zip(a, b):
        if max(u, v) >= n:
            raise DomainError(f"edge {names[u]}-{names[v]}: unknown endpoint {names[u if u >= n else v]!r}")
    exact = (BoundKind.PLOB_EXACT,) * len(a)
    values = (value,) * len(a)
    return BoundedGraph(names, graph.users, a, b, values, values, exact, exact, a, a)


def network_to_json(graph: NetworkGraph) -> str:
    """The per-edge-object JSON form, as the one line ``json.dumps`` writes; ValueError on inf or nan."""
    return "".join(network_json_chunks(graph))


def network_json_chunks(graph: NetworkGraph) -> Iterator[str]:
    """The text of ``network_to_json`` in pieces of up to 1024 records, joined from the columns;
    every name, class and device is encoded, and any ValueError raised, before this returns."""
    dumps = json.JSONEncoder(allow_nan=False).encode  # json.dumps(obj, allow_nan=False)
    names = list(map(encode_basestring_ascii, graph.names))
    sources = [f'"fibre": {dumps(c._asdict())}' if isinstance(c, FibreParams)
               else f'"channel": {dumps(channel_to_json(c))}' for c in graph.classes]

    def device(key: str, channel: ChannelSpec) -> str:
        return "" if isinstance(channel, Identity) else f', "{key}": {dumps(channel_to_json(channel))}'

    recvs = [device("recv", recv) for recv in graph.recv]
    sends = [device("send", send) for send in graph.send]
    tail = "]"
    if graph.users is not None:
        tail += f', "users": {dumps(list(graph.users))}'
    if graph.family is not None:
        tail += f', "family": {dumps(graph.family)}'
    nodes = (f'{{"id": {name}{recv}{send}, "role": {encode_basestring_ascii(role)}}}'
             for name, recv, send, role in zip(names, recvs, sends, graph.role))
    edges = (f'{{"a": {names[u]}, "b": {names[v]}, {sources[c]}}}' for u, v, c in zip(graph.a, graph.b, graph.cls))

    def chunks() -> Iterator[str]:
        for head, records in (('{"nodes": [', nodes), ('], "edges": [', edges)):
            yield head
            sep = ""
            while piece := ", ".join(islice(records, 1024)):
                yield sep + piece
                sep = ", "
        yield tail + "}"

    return chunks()


def load_network(text: str) -> tuple[NetworkGraph | None, list[str]]:
    """Read the text of a network JSON file, collecting violations instead of raising.

    Returns (graph, violations); the graph is None only when the input is too
    malformed to build one at all. A node or edge with a violation of its own
    is left out of the graph. The scanner of ``json.loads`` decodes the records
    of a non-empty "nodes" array and then a non-empty "edges" array one at a
    time, in an object with unique keys, so the parsed document is never held.
    Other text goes through ``_load_json``: malformed text raises what
    ``json.loads`` raises.
    """
    rest: dict = {}
    violations: list[str] = []
    records = _records(text, rest).__next__
    # Text of another shape raises ValueError, TypeError (no punctuation where
    # one is due) or RuntimeError: a RecursionError, or the StopIteration of a
    # scan that finds no value, which leaves the generator as one (PEP 479).
    try:
        graph = _graph_columns(iter(records, _END), iter(records, _END), rest, violations)
    except (ValueError, TypeError, RuntimeError):
        return _load_json(text)
    del text, records  # before validation
    violations.extend(validate(graph))
    return graph, list(dict.fromkeys(violations))


def _load_json(text: str) -> tuple[NetworkGraph | None, list[str]]:
    """``load_network`` of any text, through the whole document ``json.loads`` parses."""
    data = json.loads(text)
    if not isinstance(data, dict):
        return None, ["network: top-level object required"]
    violations: list[str] = []
    nodes, edges = data.get("nodes"), data.get("edges")
    graph = _graph_columns(nodes if isinstance(nodes, list) else None,
                           edges if isinstance(edges, list) else None, data, violations)
    violations.extend(validate(graph))
    return graph, list(dict.fromkeys(violations))


# Ends the records of "nodes", and then those of "edges", in ``_records``.
_END = object()
# A JSON punctuation character and the whitespace around it.
_PUNCT = re.compile(r"[ \t\n\r]*([][{}:,])[ \t\n\r]*")


def _records(text: str, rest: dict) -> Iterator:
    """Yield the records of the "nodes" array, _END, those of the "edges" array
    and, once the text is read to its end, _END; the other members of the
    object go into ``rest``. Raises if the text is not of that shape."""
    scan, punct = json.JSONDecoder().scan_once, _PUNCT.match
    if (m := punct(text))[1] != "{":
        raise ValueError("not an object")
    names = set()
    while True:
        name, i = scan(text, m.end())
        if (m := punct(text, i))[1] != ":" or type(name) is not str or name in names or (
                name == "edges" and "nodes" not in names):
            raise ValueError("not a member with a new string key, or edges before nodes")
        names.add(name)
        if name in ("nodes", "edges"):
            if (m := punct(text, m.end()))[1] != "[":
                raise ValueError("not an array")
            i = m.end()
            while True:
                record, i = scan(text, i)
                yield record
                if text.startswith(", {", i):  # the separator ``generate`` writes
                    i += 2
                elif (m := punct(text, i))[1] == ",":
                    i = m.end()
                else:
                    break
            if m[1] != "]":
                raise ValueError("not an array")
            if name == "nodes":
                yield _END
            i = m.end()
        else:
            rest[name], i = scan(text, m.end())
        if (m := punct(text, i))[1] != ",":
            break
    if m[1] != "}" or m.end() != len(text) or "edges" not in names:
        raise ValueError("not one object with an edges array")
    yield _END


def _graph_columns(raw_nodes: Iterable | None, raw_edges: Iterable | None, data,
                   violations: list[str]) -> NetworkGraph:
    """The graph of a network object's node and edge records (None if missing) and other members
    ``data``; appends the violations of its nodes, edges and users."""
    number: dict[str, int] = {}
    recvs, sends, roles = [], [], []
    if raw_nodes is None:
        violations.append("nodes: required")
        raw_nodes = ()
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict) or "id" not in raw:
            violations.append(f"node #{i}: object with an 'id' required")
            continue
        node_id = str(raw["id"])
        if node_id in number:
            violations.append(f"node {node_id!r}: duplicate id")
            continue
        try:
            recv = channel_from_json(raw["recv"]) if "recv" in raw else IDENTITY
            send = channel_from_json(raw["send"]) if "send" in raw else IDENTITY
            role = check_role(str(raw.get("role", "repeater")))
        except DomainError as exc:
            violations.append(f"node {node_id!r}: {exc}")
            continue
        number[node_id] = len(number)
        recvs.append(recv)
        sends.append(send)
        roles.append(role)
    a, b, cls, classes = [], [], [], []
    # Class numbers by explicit channel, and by a fibre's (length_km, gamma,
    # nbar_B): FibreParams equality, without building one per edge. The key is
    # tagged, as a channel record is a tuple too.
    class_of: dict = {}
    if raw_edges is None:
        violations.append("edges: required")
        raw_edges = ()
    for i, raw in enumerate(raw_edges):
        if not isinstance(raw, dict) or "a" not in raw or "b" not in raw:
            violations.append(f"edge #{i}: object with endpoints 'a' and 'b' required")
            continue
        end_a, end_b = str(raw["a"]), str(raw["b"])
        has_channel = "channel" in raw
        if has_channel == ("fibre" in raw):
            violations.append(f"edge {end_a}-{end_b}: exactly one of 'channel' or 'fibre' required")
            continue
        try:
            if has_channel:
                key = channel_from_json(raw["channel"])
            else:
                fibre = raw["fibre"]
                if not isinstance(fibre, dict) or "length_km" not in fibre:
                    violations.append(f"edge {end_a}-{end_b}: fibre needs a 'length_km'")
                    continue
                length, gamma, nbar_b = fibre["length_km"], fibre.get("gamma", 0.02), fibre.get("nbar_B", 0.002)
                # By identity: True == 1.0 with the same hash, so float() and the class memo would take it.
                if (length is True or length is False or gamma is True or gamma is False
                        or nbar_b is True or nbar_b is False):
                    raise DomainError(f"fibre fields must be numbers, got {fibre!r}")
                key = (FibreParams, float(length), float(gamma), float(nbar_b))
            c = class_of.get(key)
            if c is None:
                classes.append(key if has_channel else FibreParams(*key[1:]))
                c = class_of[key] = len(classes) - 1
        except (DomainError, TypeError, ValueError, OverflowError) as exc:
            violations.append(f"edge {end_a}-{end_b}: {exc}")
            continue
        # An endpoint that names no node is numbered after the nodes.
        a.append(number.setdefault(end_a, len(number)))
        b.append(number.setdefault(end_b, len(number)))
        cls.append(c)
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
    return NetworkGraph(tuple(number), tuple(recvs), tuple(sends), tuple(roles), tuple(a), tuple(b),
                        tuple(cls), tuple(classes), users=users, family=fam)

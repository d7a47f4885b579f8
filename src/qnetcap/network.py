"""Undirected network graphs, their JSON form, validation and edge-bound annotation.

A NetworkGraph holds, as columns, the nodes (names, device tables and roles),
the undirected edges as pairs of node numbers, each with a class in a table
of distinct fibres and explicit channels, and the pair of end users. The
tables are tuples of ``channels`` rows: ``load_network`` fills them through
the file reader in ``reader.py``, which only a call that reads a network
loads, the writer ``network_json_chunks`` encodes them, and the ``nodes`` and
``edges`` views hand them out per node and per edge.
``apply_split`` turns a graph into a ``routing.BoundedGraph`` by taking the
rows' family-native numbers into every edge's directions and running the
bound kernels over them, orientation-optimized per edge. The BoundedGraph
and everything computed on it live in ``routing.py``; the per-edge reference
that ``apply_split`` is tested against is ``oracles.oriented_edge_bounds``.
"""

from __future__ import annotations

import json
from itertools import chain, cycle, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .channels import FAMILY_AD, FAMILY_TL, FIBRE, NodeSpec, row_to_json
from .errors import DomainError, FamilyError, ValidationError, checked

if TYPE_CHECKING:  # ``validate`` runs without the bound functions and the bounded graph
    from .routing import BoundedGraph


def _check_users(users) -> None:
    """DomainError unless ``users`` is a pair of node names."""
    if not (isinstance(users, tuple) and len(users) == 2 and all(isinstance(u, str) for u in users)):
        raise DomainError(f"users must be a pair of node names, got {users!r}")


# One edge by endpoint names, with the row of its explicit channel or of its fibre.
EdgeView = NamedTuple("EdgeView", [("a", str), ("b", str), ("channel", tuple | None), ("fibre", tuple | None)])


class _GraphColumns(NamedTuple):
    names: tuple[str, ...]
    recv: tuple[tuple, ...]
    send: tuple[tuple, ...]
    role: tuple[str, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    cls: tuple[int, ...]
    classes: tuple[tuple, ...]
    users: tuple[str, str] | None = None
    family: str | None = None


@checked
class NetworkGraph(_GraphColumns):
    """Immutable network description as columns; build once and share freely.

    Node i is named ``names[i]``, has the role ``role[i]`` and entry i of the
    ``recv`` and ``send`` tables. Names past the last node are endpoints that
    name no node, which only a graph that fails ``validate`` has. Edge i
    joins node numbers ``a[i]`` and ``b[i]`` over entry ``cls[i]`` of
    ``classes``, a fibre or an explicit channel, each distinct one once. The
    tables are tuples of ``channels`` rows (kind, eta, last, length_km,
    gamma). Construction raises DomainError unless the tables are tuples, the
    columns agree in length, every number indexes ``names`` or ``classes`` and
    ``users`` is None or a pair of names. The rows themselves are trusted:
    only ``load_network`` range-checks them, ``validate`` reports a kind that
    names no channel or an entry that is no row, and ``apply_split`` raises
    DomainError for a row too short for its family's numbers. The ``nodes``
    and ``edges`` views hand the rows out per node and per edge, built on demand.
    """

    # The resolved family, which ``validate`` sets once it finds the graph
    # valid: the only attribute ever set on a graph. A ``_replace`` copy is
    # a new graph and is checked again.
    _valid_family: str | None = None

    def _check(self):
        m, n, tables = len(self.names), len(self.role), (self.recv, self.send, self.classes)
        if not all(type(table) is tuple for table in tables):
            raise DomainError("network graph recv, send and classes must be tuples of rows")
        if not (n <= m and len(self.recv) == len(self.send) == n):
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
        sources = [(None, row) if row[0] == FIBRE else (row, None) for row in self.classes]
        return tuple(EdgeView(names[u], names[v], *sources[c]) for u, v, c in zip(self.a, self.b, self.cls))


def resolved_family(graph: NetworkGraph) -> str:
    """The single channel family of the graph, declared or inferred from the kinds of its tables."""
    # Kinds compared, not hashed, as one may be unhashable; equal neighbours once.
    kinds = [kind for kind, _ in groupby(map(itemgetter(0), chain(graph.recv, graph.send, graph.classes)))]
    if unknown := [kind for kind in kinds if kind not in (None, FIBRE, FAMILY_AD, FAMILY_TL)]:
        raise FamilyError(f"unknown channel kind {', '.join(sorted(set(map(repr, unknown))))}")
    found = {fam for fam in (FAMILY_AD, FAMILY_TL) if fam in kinds}
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
    except (TypeError, IndexError):  # an entry with no kind to read, such as None or ()
        violations.append("recv, send and classes: every entry must be a channel row")
    else:
        if not violations:
            graph._valid_family = fam
    return violations


def apply_split(graph: NetworkGraph) -> BoundedGraph:
    """Annotate every edge with orientation-optimized capacity bounds.

    A graph not yet found valid by ``validate`` is validated first, and its
    one channel family is resolved once. A row's family-native numbers are its
    eta in "ad" and its (eta, last) pair in "tl". A direction whose (send,
    channel, recv) equals the previous direction's shares its bounds, so a
    lattice is bounded once; the others are bounded in one call of each
    ``bounds`` kernel. Each side of an edge takes its better direction, a tie
    going to the smaller (sender, receiver) pair. Deterministic and idempotent.
    """
    from .bounds import bound_columns, compounds
    from .routing import BoundedGraph
    if graph._valid_family is None:
        violations = validate(graph)
        if violations:
            raise ValidationError(violations)
    fam = graph._valid_family
    numbers = itemgetter(1, 2) if fam == FAMILY_TL else itemgetter(1)
    try:
        sends, recvs, channels = (list(map(numbers, table)) for table in (graph.send, graph.recv, graph.classes))
    except IndexError:
        raise DomainError(f"a channel row is too short for the {fam!r} family's numbers") from None

    names, a, b = graph.names, graph.a, graph.b
    directions, at = [], []  # the directions bounded; each edge's forward and backward one among them
    last, n = None, -1
    for u, v, c in zip(a, b, graph.cls):
        c = channels[c]
        if (direction := (sends[u], c, recvs[v])) != last:
            directions.append(last := direction)
            n += 1
        at.append(n)
        if (direction := (sends[v], c, recvs[u])) != last:
            directions.append(last := direction)
            n += 1
        at.append(n)
    lo, lo_kind, up, up_kind = bound_columns(fam, compounds(fam, directions))
    columns = lower, upper, lower_kind, upper_kind, lower_sender, upper_sender = [], [], [], [], [], []
    for u, v, i, j in zip(a, b, at[0::2], at[1::2]):
        if names[v] < names[u]:  # ties go to the smaller (sender, receiver) pair
            lower_back, upper_back = not lo[i] > lo[j], not up[i] > up[j]
        else:
            lower_back, upper_back = lo[j] > lo[i], up[j] > up[i]
        lower.append(lo[j] if lower_back else lo[i])
        lower_kind.append(lo_kind[j] if lower_back else lo_kind[i])
        lower_sender.append(v if lower_back else u)
        upper.append(up[j] if upper_back else up[i])
        upper_kind.append(up_kind[j] if upper_back else up_kind[i])
        upper_sender.append(v if upper_back else u)
    return BoundedGraph(names, graph.users, a, b, *map(tuple, columns))


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
    from .bounds import BoundKind
    from .routing import BoundedGraph
    exact = (BoundKind.PLOB_EXACT,) * len(a)
    values = (value,) * len(a)
    return BoundedGraph(names, graph.users, a, b, values, values, exact, exact, a, a)


def network_json_chunks(graph: NetworkGraph) -> Iterator[str]:
    """The per-edge-object JSON form, the one line ``json.dumps`` writes, in pieces of up to 1024
    records: each class and device is its row's ``row_to_json``. Every name,
    class and device is encoded, and any ValueError (inf or nan) or FamilyError (a kind that names
    no channel) raised, before this returns; ``"".join`` of the pieces is the whole text."""
    dumps = json.JSONEncoder(allow_nan=False).encode  # json.dumps(obj, allow_nan=False)
    names = list(map(encode_basestring_ascii, graph.names))
    sources = [f'"{"fibre" if row[0] == FIBRE else "channel"}": {dumps(row_to_json(*row))}'
               for row in graph.classes]

    def device(key: str, row: tuple) -> str:
        return "" if row[0] is None else f', "{key}": {dumps(row_to_json(*row))}'

    def devices(key: str, table: tuple[tuple, ...]) -> list[str]:
        """Each node's device text: once for a table of ideal devices, or one whose rows each repeat
        the first row's fields by identity, as ``generate``'s templates build it."""
        if table and (all(map(is_, map(itemgetter(0), table), repeat(None)))
                      or all(map(is_, chain.from_iterable(table), cycle(table[0])))):
            return [device(key, table[0])] * len(table)
        return [device(key, row) for row in table]

    recvs, sends = devices("recv", graph.recv), devices("send", graph.send)
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
    is left out of the graph. The records of a non-empty "nodes" array and then
    a non-empty "edges" array, in an object with unique keys, are read a record
    or a run of about ``_CHUNK`` characters at a time, so the parsed document is
    never held. The records after each array's first are read from their text,
    a column per field, while they are in its layout, as ``network_json_chunks``
    writes it, with names that hold no quote, escape or unprintable character
    and numbers that are finite floats. The scanner of ``json.loads`` decodes
    any other record, and other text goes through ``_load_json``, so every text
    reads as it would through ``json.loads``: malformed text raises what it raises.
    """
    from .reader import _END, _graph_columns, _load_json, _records
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

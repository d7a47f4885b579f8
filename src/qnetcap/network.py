"""Undirected network graphs, their JSON form, validation and edge-bound annotation.

A NetworkGraph holds, as columns, the nodes (names, device tables and roles),
the undirected edges as pairs of node numbers, each with a class in a table
of distinct fibres and explicit channels, and the pair of end users. The
tables are tuples of ``channels`` rows: the reader ``load_network`` fills
them, the writer ``network_json_chunks`` encodes them, and the ``nodes`` and
``edges`` views hand them out per node and per edge.
``apply_split`` turns a graph into a BoundedGraph by taking the rows'
family-native numbers into every edge's directions and running the bound
kernels over them, orientation-optimized per edge. Everything computed on a
BoundedGraph lives in ``routing.py``; the per-edge reference that
``apply_split`` is tested against is ``oracles.oriented_edge_bounds``.
"""

from __future__ import annotations

import json
import re
from itertools import chain, count, cycle, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import is_, itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .channels import (
    DEFAULT_GAMMA,
    DEFAULT_NBAR_B,
    FAMILY_AD,
    FAMILY_TL,
    FIBRE,
    IDENTITY,
    FibreParams,
    ROLES,
    NodeSpec,
    check_role,
    row_from_json,
    row_to_json,
    rows_of,
    written_numbers,
)
from .errors import DomainError, FamilyError, ValidationError, checked

if TYPE_CHECKING:  # ``validate`` runs without the bound functions
    from .bounds import BoundKind

SELECTORS = ("lower", "upper")
BOUND_ORDER_TOL = 1e-12  # how far rounding may take a lower bound above its upper


def check_selector(selector: str) -> str:
    if selector not in SELECTORS:
        raise DomainError(f"selector must be 'lower' or 'upper', got {selector!r}")
    return selector


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
    only ``load_network`` range-checks them, and ``validate`` reports a kind
    that names no channel. The ``nodes`` and ``edges`` views
    hand the rows out per node and per edge, built on demand.
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
    if graph._valid_family is None:
        violations = validate(graph)
        if violations:
            raise ValidationError(violations)
    fam = graph._valid_family
    numbers = itemgetter(1, 2) if fam == FAMILY_TL else itemgetter(1)
    sends, recvs, channels = (list(map(numbers, table)) for table in (graph.send, graph.recv, graph.classes))

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
_scan = json.JSONDecoder().scan_once
# The least length of text that ``_run`` takes as one run.
_CHUNK = 1 << 16


# The keys of each record layout ``network_json_chunks`` writes, and those that hold a name.
_LAYOUTS = [["id", "role"], ["id", "recv", "role"], ["id", "send", "role"], ["id", "recv", "send", "role"],
            ["a", "b", "fibre"], ["a", "b", "channel"]]
_NAMES = ("id", "role", "a", "b")


def _fields(record) -> list | None:
    """The fields of ``record`` in text order, each name and each number of its device, fibre or
    channel objects, if it is in a layout ``network_json_chunks`` writes with floats for numbers;
    else None."""
    if type(record) is not dict or [*record] not in _LAYOUTS:
        return None
    parts = [([value] if type(value) is str else None) if key in _NAMES else written_numbers(value, key == "fibre")
             for key, value in record.items()]
    return None if None in parts else [*chain.from_iterable(parts)]


def _layout(record, text: str, j: int) -> tuple[list[str], str, list[int]] | None:
    """How ``_run`` reads the records after ``record``, the first of its array, which ends
    at ``text[j]``, if ``_fields`` takes it: the text before each field of a record, the text
    after its last field that is not shared, and the positions of its numbers; else None. The
    texts are those ``json.dumps`` writes. Its trailing floats whose text the next record
    repeats are shared: part of the text after the fields, decoded once."""
    if (fields := _fields(record)) is None:
        return None
    # The record written with a mark for each field, "\0" for a name and "\1" for a number.
    marked = json.dumps({key: "\0" if key in _NAMES else {k: v if k == "kind" else "\1" for k, v in value.items()}
                         for key, value in record.items()})
    seps = marked.replace('"\\u0001"', "\\u0000").split("\\u0000")
    tail, k, second = seps[-1], len(fields), text[j + 2:text.find(", " + seps[0], j + 2)]
    while type(fields[k - 1]) is float and second.endswith(f"{seps[k - 1]}{fields[k - 1]!r}{tail}"):
        k -= 1
        tail = f"{seps[k]}{fields[k]!r}{tail}"
    return seps[:k], tail, [p for p in range(k) if type(fields[p]) is float]


def _run(text: str, i: int, seps: list[str], tail: str, numbers: list[int]) -> tuple[list[list], int] | None:
    """(columns, end): a column of each field of the run of records from ``text[i]``, each its
    fields, each after its text in ``seps``, and then ``tail``, joined by ", ", and the index
    after the run; else None. The run is cut at every separator and taken only if, rebuilt
    from its fields, it is the text cut, and no name holds a quote, a backslash or an
    unprintable character, so that each is its own JSON text. The fields at ``numbers`` are
    decoded in one ``json.loads`` and must be finite floats. A run ends at the first record
    separator ``_CHUNK`` or more characters on, else at the array's end, within twice ``_CHUNK``."""
    head, k, sep, stop = seps[0], len(seps), f"{tail}, {seps[0]}", i + 2 * _CHUNK
    if not text.startswith(head, i) or (
            (end := text.find(sep, i + _CHUNK, stop)) < 0 and (end := text.find(tail + "]", i, stop)) < 0):
        return None
    body = cut = text[i + len(head):end]
    # Cut at each separator, the pieces joined by the shortest, which is cut last; unlike
    # split and replace, rsplit builds no search table for each match.
    marker = min(pieces := dict.fromkeys([sep, *seps[1:]]), key=len)
    for piece in pieces:
        cut = marker.join(cut.rsplit(piece)) if piece != marker else cut
    fields = cut.rsplit(marker)
    rebuilt = [None] * (2 * len(fields))
    try:  # a field count that is not a multiple of k fails the assignment
        rebuilt[0::2], rebuilt[1::2] = fields, [*seps[1:], sep] * (len(fields) // k)
        columns = [fields[p::k] for p in range(k)]
        values = json.loads(f"[{','.join(chain.from_iterable(columns[p] for p in numbers))}]")
    except (ValueError, RecursionError):
        return None
    names, n = "".join(chain.from_iterable(c for p, c in enumerate(columns) if p not in numbers)), len(columns[0])
    if ("".join(rebuilt) != body + sep or '"' in names or "\\" in names or not names.isprintable()
            or len(values) != n * len(numbers) or not {*map(type, values)} <= {float} or not isfinite(sum(values))):
        return None
    for at, p in enumerate(numbers):
        columns[p] = values[at * n:(at + 1) * n]
    return columns, end + len(tail)


def _records(text: str, rest: dict) -> Iterator:
    """Yield the records of the "nodes" array, _END, those of the "edges" array
    and, once the text is read to its end, _END; the other members of the
    object go into ``rest``. Raises if the text is not of that shape.

    The scanner decodes each array's first record, and ``_layout`` tells from it
    and the text of the next how ``_run`` reads the rest. Records then come a run
    at a time, as (first, columns): the array's first record and a column of each
    field ``_run`` gives. Once a try fails, or the consumer clears a run's columns,
    the rest of the array from that run on comes a record at a time through the
    scanner."""
    scan, punct = _scan, _PUNCT.match
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
            start = i = m.end()
            layout = None
            while True:
                if layout and (run := _run(text, i, *layout)):
                    yield first, run[0]
                    if not run[0]:  # the graph took none of it: read its records one at a time
                        layout = None
                        continue
                    i = run[1]
                else:  # the last record scanned is ``first`` while there is a layout
                    first, j = scan(text, i)
                    layout = _layout(first, text, j) if i == start else None
                    i = j
                    yield first
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


def _run_rows(first: dict, columns: list, n: int) -> dict:
    """Each key of ``first`` and its column in the run of records whose fields ``_run`` gives as
    ``columns``, each shared number ``n`` times: a name's, or the rows of a device, fibre or
    channel; {} if a number is out of its constructor's ranges."""
    fields = chain(columns, ([value] * n for value in _fields(first)[len(columns):]))
    try:
        return {key: next(fields) if key in _NAMES else rows_of(
                    FIBRE if key == "fibre" else value["kind"], [*islice(fields, len(value) - (key != "fibre"))])
                for key, value in first.items()}
    except DomainError:
        return {}


def _graph_columns(raw_nodes: Iterable | None, raw_edges: Iterable | None, data,
                   violations: list[str]) -> NetworkGraph:
    """The graph of a network object's node and edge records (None if missing), each a decoded
    value or an item of ``_records``, and other members ``data``; appends the violations of
    its nodes, edges and users. Devices and classes go into their tables as range-checked rows.

    A run's nodes and edges are numbered, a and then b of each edge in turn, and its devices,
    fibres or channels made rows, at once. A run in the other array's layout, or with a number
    out of range, a repeated id or a role that names none, is handed back: its columns are
    cleared, and the reader reads its records one at a time."""
    number: dict[str, int] = {}
    recvs, sends, roles = [], [], []
    if raw_nodes is None:
        violations.append("nodes: required")
        raw_nodes = ()
    skipped = 0  # the records of the runs before record i, less one a run
    for i, raw in enumerate(raw_nodes):
        if type(raw) is tuple:  # a run: its array's first record and the columns of its fields
            first, columns = raw
            run = _run_rows(first, columns, len(columns[0]))
            ids = run.get("id", ())
            numbered = dict(zip(ids, count(len(number))))
            if ids and len(numbered) == len(ids) and number.keys().isdisjoint(numbered) and {*run["role"]} <= {*ROLES}:
                number.update(numbered)
                recvs += run.get("recv", [IDENTITY] * len(ids))
                sends += run.get("send", [IDENTITY] * len(ids))
                roles += run["role"]
                skipped += len(ids) - 1
            else:  # the reader reads its records again, one at a time
                columns.clear()
                skipped -= 1
            continue
        if not isinstance(raw, dict) or "id" not in raw:
            violations.append(f"node #{i + skipped}: object with an 'id' required")
            continue
        node_id = str(raw["id"])
        if node_id in number:
            violations.append(f"node {node_id!r}: duplicate id")
            continue
        try:
            recv = row_from_json(raw["recv"]) if "recv" in raw else IDENTITY
            send = row_from_json(raw["send"]) if "send" in raw else IDENTITY
            role = check_role(str(raw.get("role", "repeater")))
        except DomainError as exc:
            violations.append(f"node {node_id!r}: {exc}")
            continue
        number[node_id] = len(number)
        recvs.append(recv)
        sends.append(send)
        roles.append(role)
    a, b, cls = [], [], []
    class_of: dict = {}  # class numbers by row, in the order of the classes
    if raw_edges is None:
        violations.append("edges: required")
        raw_edges = ()
    skipped = 0
    for i, raw in enumerate(raw_edges):
        if type(raw) is tuple:  # a run: its array's first record and the columns of its fields
            first, columns = raw
            run = _run_rows(first, columns, len(columns[2]) if len(columns) > 2 else 1)
            if "a" not in run:  # the reader reads its records again, one at a time
                columns.clear()
                skipped -= 1
                continue
            end_a, end_b, rows = run.values()
            # The first of equal rows, as of 0.0 and -0.0 km, is the class; a run sharing all has one.
            run_cls = [class_of.setdefault(row, len(class_of)) for row in rows]
            try:
                run_a, run_b = list(map(number.__getitem__, end_a)), list(map(number.__getitem__, end_b))
            except KeyError:  # an endpoint that names no node: numbered edge by edge, as below
                run_a, run_b = zip(*[(number.setdefault(x, len(number)), number.setdefault(y, len(number)))
                                     for x, y in zip(end_a, end_b)])
            a += run_a
            b += run_b
            cls += run_cls if len(run_cls) == len(end_a) else run_cls * len(end_a)
            skipped += len(end_a) - 1
            continue
        if not isinstance(raw, dict) or "a" not in raw or "b" not in raw:
            violations.append(f"edge #{i + skipped}: object with endpoints 'a' and 'b' required")
            continue
        end_a, end_b = str(raw["a"]), str(raw["b"])
        has_channel = "channel" in raw
        if has_channel == ("fibre" in raw):
            violations.append(f"edge {end_a}-{end_b}: exactly one of 'channel' or 'fibre' required")
            continue
        fibre = raw.get("fibre")
        try:
            if has_channel:
                key = row_from_json(raw["channel"])
            else:
                if not isinstance(fibre, dict) or "length_km" not in fibre:
                    violations.append(f"edge {end_a}-{end_b}: fibre needs a 'length_km'")
                    continue
                length, gamma = fibre["length_km"], fibre.get("gamma", DEFAULT_GAMMA)
                nbar_b = fibre.get("nbar_B", DEFAULT_NBAR_B)
                # By identity: True == 1.0 with the same hash, so float() and the class memo would take it.
                if (length is True or length is False or gamma is True or gamma is False
                        or nbar_b is True or nbar_b is False):
                    raise DomainError(f"fibre fields must be numbers, got {fibre!r}")
                key = FibreParams(float(length), float(gamma), float(nbar_b))
            c = class_of.setdefault(key, len(class_of))
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
    return NetworkGraph(tuple(number), tuple(recvs), tuple(sends), tuple(roles),
                        tuple(a), tuple(b), tuple(cls), tuple(class_of), users=users, family=fam)

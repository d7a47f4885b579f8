"""The network file reader, which only a call that reads a network loads.

``network.load_network`` reads a file's records through ``_records``, a run of
records at a time while they are in the layout ``network.network_json_chunks``
writes; ``_graph_columns`` builds the graph, range-checking every device and
class, and ``_load_json`` reads any other text through ``json.loads``.
"""

from __future__ import annotations

import json
import re
from itertools import chain, count, islice
from math import isfinite
from typing import Iterable, Iterator

from .channels import (DEFAULT_GAMMA, DEFAULT_NBAR_B, FIBRE, IDENTITY, FibreParams, ROLES, check_role,
                       row_from_json, rows_of, written_numbers)
from .errors import DomainError
from .network import NetworkGraph, validate


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

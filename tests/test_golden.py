"""Golden CLI corpus: output bytes and exit codes must not drift.

Each case runs ``cli.main`` in-process with ``--out`` and compares the written
file byte for byte, the exit code and the stderr text against ``tests/golden/``.
A few cases also run as ``python -m qnetcap.cli``, through the process entry.
Cases that exit 2 or 4, or analyze an invalid network (exit 3), write no
file; their exit code and their stderr JSON line are pinned, and every other
case must write nothing to stderr.
The usage cases pin what argparse prints for ``--help`` and for usage errors,
with stdout, stderr and the exit code in ``usage.json``, at 80 columns. That
text is argparse's: CPython 3.10 to 3.12 print it alike, and 3.13 wraps the
``threshold`` usage lines differently.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from qnetcap.cli import main
from qnetcap.network import load_network, network_json_chunks
from qnetcap.reader import _load_json
from qnetcap.wrn import WrnSpec, generate

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
STDERR = GOLDEN / "stderr.json"
USAGE = GOLDEN / "usage.json"

MAN = {"cell": "manhattan8", "radius": 2, "edge_length_km": 10.0}
TRI = {"cell": "triangular6", "radius": 2, "edge_length_km": 10.0}
TL_RECV = {"kind": "tl", "tau": 0.9, "nbar": 0.01}
TL_SEND = {"kind": "tl", "tau": 0.95, "nbar": 0.005}
AD_RECV = {"kind": "ad", "p": 0.05}
AD_SEND = {"kind": "ad", "p": 0.02}
MAN_T = {**MAN, "recv": TL_RECV, "send": TL_SEND}
TRI_T = {**TRI, "recv": AD_RECV, "send": AD_SEND}
MAN_Q = {**MAN, "qkd_setup": "table1-heterodyne-llo"}


def _lattice(cell: str, fam: str, recv: dict, send: dict, odd_recv: dict) -> dict:
    """Radius-2 lattice JSON with device templates; every third node gets a
    different receiver, so the two directions of some edges differ."""
    spec = WrnSpec(cell_type=cell, radius=2, edge_length_km=10.0, family=fam)
    data = json.loads("".join(network_json_chunks(generate(spec))))
    for i, node in enumerate(data["nodes"]):
        node["recv"] = odd_recv if i % 3 == 0 else recv
        node["send"] = send
    return data


def _ideal_edge() -> dict:
    return {
        "family": "tl",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"a": "a", "b": "b", "channel": {"kind": "id"}},
            {"a": "b", "b": "c", "fibre": {"length_km": 5.0}},
        ],
        "users": ["a", "c"],
    }


_NET = {
    "family": "tl",
    "nodes": [{"id": "a", "role": "user"}, {"id": "b"}, {"id": "c", "role": "user"}],
    "edges": [{"a": "a", "b": "b", "fibre": {"length_km": 5.0}}, {"a": "b", "b": "c", "fibre": {"length_km": 7.0}}],
    "users": ["a", "c"],
}
_NET_TEXT = json.dumps(_NET)

# One violation of each structural kind: a parallel edge, a self-loop, an
# unknown endpoint, and the role 'user' on a node that is not an end user.
_VIOLATIONS = {
    "family": "tl",
    "nodes": [{"id": "a", "role": "user"}, {"id": "b", "role": "user"}, {"id": "c", "role": "user"}],
    "edges": [
        {"a": "a", "b": "b", "fibre": {"length_km": 5.0}},
        {"a": "b", "b": "a", "fibre": {"length_km": 6.0}},
        {"a": "b", "b": "b", "fibre": {"length_km": 1.0}},
        {"a": "b", "b": "z", "fibre": {"length_km": 2.0}},
        {"a": "b", "b": "c", "fibre": {"length_km": 7.0}},
    ],
    "users": ["a", "c"],
}


def _net_bytes(old: str, new: str) -> bytes:
    """``_NET_TEXT``, with ``old``, which it holds once, replaced by ``new``, as UTF-8."""
    assert _NET_TEXT.count(old) == 1
    return _NET_TEXT.replace(old, new).encode("utf-8")


def _sweep(variable: str, wrn: dict, start: float, stop: float, **extra) -> dict:
    scale = "log" if variable == "targetCapacity" else "linear"
    return {"variable": variable, "start": start, "stop": stop, "steps": 8, "scale": scale,
            "wrn": wrn, **extra}


# name -> (subcommand, input object, or the input file's bytes, or None for none, extra arguments)
CASES = {
    "generate-manhattan8-r2": ("generate", None, (
        "--cell", "manhattan8", "--radius", "2", "--d", "7.5", "--gamma", "0.03", "--nbar-b", "0.001")),
    "generate-triangular6-r3-tl": ("generate", None, (
        "--cell", "triangular6", "--radius", "3", "--d", "10.0", "--family", "tl")),
    "analyze-tl-templates": ("analyze", _lattice(
        "manhattan8", "tl", TL_RECV, TL_SEND, {"kind": "tl", "tau": 0.7, "nbar": 0.03}), ()),
    "analyze-ad-templates": ("analyze", _lattice(
        "triangular6", "ad", AD_RECV, AD_SEND, {"kind": "ad", "p": 0.2}), ()),
    "analyze-ideal-edge": ("analyze", _ideal_edge(), ()),
    "threshold-edge-length-tl": ("threshold", MAN, ("--target", "1e-2", "--param", "edge-length")),
    "threshold-edge-length-tl-templates": (
        "threshold", MAN_T, ("--target", "1e-3", "--param", "edge-length")),
    "threshold-edge-length-ad-templates": (
        "threshold", TRI_T, ("--target", "1e-2", "--param", "edge-length")),
    "threshold-internal-loss": ("threshold", TRI, ("--target", "1e-2", "--param", "internal-loss")),
    "threshold-internal-loss-templates": (
        "threshold", TRI_T, ("--target", "1e-1", "--param", "internal-loss")),
    "threshold-receiver-noise": ("threshold", MAN, ("--target", "1e-2", "--param", "receiver-noise")),
    "threshold-receiver-noise-templates": (
        "threshold", MAN_T, ("--target", "1e-2", "--param", "receiver-noise")),
    "threshold-qkd-edge-length": ("threshold", MAN_Q, ("--target", "1e-2", "--param", "edge-length")),
    "threshold-qkd-receiver-noise": (
        "threshold", MAN_Q, ("--target", "1e-3", "--param", "receiver-noise")),
    "threshold-unattainable-tl": ("threshold", MAN, ("--target", "1e9", "--param", "edge-length")),
    "threshold-unattainable-ad": ("threshold", TRI, ("--target", "1e9", "--param", "internal-loss")),
    "threshold-family-mismatch": ("threshold", MAN, ("--target", "1e-2", "--param", "internal-loss")),
    "sweep-targetCapacity-tl": ("sweep", _sweep("targetCapacity", MAN, 1e-3, 1e-1), ()),
    "sweep-targetCapacity-tl-templates": ("sweep", _sweep("targetCapacity", MAN_T, 1e-3, 1e-1), ()),
    "sweep-targetCapacity-ad": ("sweep", _sweep("targetCapacity", TRI, 1e-4, 1e-1), ()),
    "sweep-targetCapacity-ad-internalLoss": (
        "sweep", _sweep("targetCapacity", TRI, 3e-3, 1e-1, param="internalLoss"), ()),
    "sweep-targetCapacity-tl-receiverNoise": (
        "sweep", _sweep("targetCapacity", MAN, 3e-3, 1e-1, param="receiverNoise"), ()),
    "sweep-targetCapacity-ad-receiverNoise": (
        "sweep", _sweep("targetCapacity", TRI, 3e-3, 1e-1, param="receiverNoise"), ()),
    "sweep-targetCapacity-unknown-param": (
        "sweep", _sweep("targetCapacity", TRI, 3e-3, 1e-1, param="edgeCount"), ()),
    "sweep-edgeLength-ad": ("sweep", _sweep("edgeLength", TRI, 1.0, 40.0, target=1e-2), ()),
    "sweep-edgeLength-ad-templates": ("sweep", _sweep("edgeLength", TRI_T, 1.0, 40.0, target=1e-2), ()),
    "sweep-edgeLength-tl": ("sweep", _sweep("edgeLength", MAN, 1.0, 40.0, target=3e-2), ()),
    "sweep-edgeLength-tl-templates": ("sweep", _sweep("edgeLength", MAN_T, 1.0, 40.0, target=1e-2), ()),
    "sweep-edgeLength-tl-qkd": (
        "sweep", _sweep("edgeLength", MAN, 1.0, 40.0, target=1e-1, qkd_setup="table1-homodyne-tlo"), ()),
    "sweep-internalLoss-ad": ("sweep", _sweep("internalLoss", TRI, 0.0, 0.3, target=1e-2), ()),
    "sweep-internalLoss-ad-templates": ("sweep", _sweep("internalLoss", TRI_T, 0.0, 0.3, target=1e-2), ()),
    "sweep-internalLoss-tl": ("sweep", _sweep("internalLoss", MAN, 0.0, 0.3, target=1e-2), ()),
    "sweep-receiverNoise-tl": ("sweep", _sweep("receiverNoise", MAN, 0.0, 0.05, target=1e-2), ()),
    "sweep-receiverNoise-tl-templates": (
        "sweep", _sweep("receiverNoise", MAN_T, 0.0, 0.05, target=1e-2), ()),
    "sweep-receiverNoise-ad": ("sweep", _sweep("receiverNoise", TRI, 0.0, 0.05, target=1e-2), ()),
    "analyze-syntax-error-in-nodes": ("analyze", _net_bytes('{"id": "b"}', '{"id" "b"}'), ()),
    "analyze-syntax-error-in-edges": ("analyze", _net_bytes('}}, {"a": "b"', '}} {"a": "b"'), ()),
    "validate-trailing-data": ("validate", (_NET_TEXT + ' {"nodes": []}').encode("utf-8"), ()),
    "analyze-utf8-bom": ("analyze", ("\ufeff" + _NET_TEXT).encode("utf-8"), ()),
    "validate-truncated": ("validate", _NET_TEXT[:_NET_TEXT.index('"length_km": 7.0')].encode("utf-8"), ()),
    "analyze-deeply-nested-edge": (
        "analyze", _net_bytes('"fibre": {"length_km": 7.0}', '"channel": ' + "[" * 100_000 + "]" * 100_000), ()),
    "validate-number-as-key": ("validate", _net_bytes('"users"', '7: 0, "users"'), ()),
    "validate-nodes-closed-by-brace": (
        "validate", _net_bytes('"role": "user"}], "edges"', '"role": "user"}}, "edges"'), ()),
    "validate-edges-before-nodes": ("validate", {key: _NET[key] for key in ("family", "edges", "nodes", "users")}, ()),
    "validate-duplicate-key": ("validate", _net_bytes('"users"', '"users": ["a", "b"], "users"'), ()),
    "validate-violations": ("validate", _VIOLATIONS, ()),
    "analyze-violations": ("analyze", _VIOLATIONS, ()),
}


COMMANDS = ("generate", "validate", "analyze", "threshold", "sweep", "selftest")

# name -> arguments; argparse answers each before any file is read.
USAGE_CASES = {
    "help": ("--help",),
    **{f"help-{command}": (command, "--help") for command in COMMANDS},
    "usage-no-command": (),
    "usage-generate-no-cell": ("generate", "--radius", "2", "--d", "10"),
    "usage-validate-no-in": ("validate",),
    "usage-analyze-no-in": ("analyze", "--out", "report.json"),
    "usage-threshold-no-spec": ("threshold", "--target", "1e-2", "--param", "edge-length"),
    "usage-sweep-no-spec": ("sweep",),
    "usage-selftest-count-without-value": ("selftest", "--count"),
    "usage-threshold-bad-param": ("threshold", "--spec", "wrn.json", "--target", "1e-2", "--param", "edge"),
    "usage-threshold-bad-target": ("threshold", "--spec", "wrn.json", "--target", "x", "--param", "edge-length"),
}


def run_usage(name: str) -> dict:
    """Exit code, stdout and stderr of one usage case, at a terminal width of 80."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(list(USAGE_CASES[name]))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def run_case(name: str, workdir: Path, call=in_process) -> tuple[int, bytes | None, str]:
    """Exit code, output file bytes (None when no file was written) and stderr of ``call``."""
    command, obj, extra = CASES[name]
    out = workdir / f"{name}.out"
    src = workdir / f"{name}.json"
    if obj is not None:
        src.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode("utf-8"))
        extra = ("--in" if command in ("analyze", "validate") else "--spec", str(src), *extra)
    code, stderr = call([command, *extra, "--out", str(out)])
    # A message that names the input file names it without its directory.
    stderr = stderr.replace(json.dumps(str(src))[1:-1], src.name)
    return code, out.read_bytes() if out.exists() else None, stderr


def assert_golden(name: str, code: int, data: bytes | None, stderr: str) -> None:
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert stderr == json.loads(STDERR.read_text()).get(name, "")
    golden = GOLDEN / f"{name}.out"
    if data is None:
        assert not golden.exists()
    else:
        assert data == golden.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    assert_golden(name, *run_case(name, tmp_path))


# Every subcommand that writes a file, and exit codes 0, 2, 3 and 4.
PROCESS_CASES = ("generate-manhattan8-r2", "validate-violations", "analyze-syntax-error-in-edges",
                 "threshold-unattainable-tl", "sweep-edgeLength-ad")


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_golden_through_the_process_entry(name, tmp_path, python):
    def in_a_process(argv: list[str]) -> tuple[int, str]:
        proc = python("-m", "qnetcap.cli", *argv, capture_output=True, text=True)
        assert proc.stdout == ""
        return proc.returncode, proc.stderr

    assert_golden(name, *run_case(name, tmp_path, in_a_process))


def outcome(read, text: str):
    """``read(text)``, or the type and message of what it raised."""
    try:
        return read(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


NETWORK_INPUTS = sorted(name for name, (command, obj, _) in CASES.items()
                        if command in ("analyze", "validate") or (command == "generate" and obj is None))


@pytest.mark.parametrize("name", NETWORK_INPUTS)
def test_read_network_reads_the_golden_networks_as_json_loads_does(name):
    command, obj, _ = CASES[name]
    if command == "generate":
        text = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    else:
        text = obj.decode("utf-8") if isinstance(obj, bytes) else json.dumps(obj)
    assert outcome(load_network, text) == outcome(_load_json, text)


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage(name):
    assert run_usage(name) == json.loads(USAGE.read_text())[name]


def record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes, stderrs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, data, stderr = run_case(name, Path(tmp))
            codes[name] = code
            if stderr:
                stderrs[name] = stderr
            target = GOLDEN / f"{name}.out"
            if data is None:
                target.unlink(missing_ok=True)
            else:
                target.write_bytes(data)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    STDERR.write_text(json.dumps(stderrs, indent=2, sort_keys=True) + "\n")
    record_usage()


def record_usage() -> None:
    usage = {name: run_usage(name) for name in sorted(USAGE_CASES)}
    USAGE.write_text(json.dumps(usage, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())

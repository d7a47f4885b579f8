import contextlib
import copy
import decimal
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qnetcap.cli import (
    DEFAULT_FAMILY,
    EXIT_INPUT,
    EXIT_NOT_ATTAINABLE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    _PARAM_BY_FLAG,
    main,
)
from qnetcap import bounds, cli, network, reader, selfcheck, wrn
from qnetcap.channels import FibreParams, ThermalLoss
from qnetcap.errors import DomainError
from qnetcap.qkd import PRESETS, QkdSetup
from qnetcap.sweep import MAX_SWEEP_STEPS, SWEEP_VARIABLES, _SOLVED_STEM, _SWEEPS, _sweep_points
from qnetcap.wrn import WrnSpec, generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


MAN_SPEC = {"cell": "manhattan8", "radius": 2, "edge_length_km": 10.0}
TRI_SPEC = {"cell": "triangular6", "radius": 2, "edge_length_km": 10.0}


@pytest.mark.parametrize("cell,nodes", [("triangular6", 61), ("manhattan8", 81)])
def test_generate_validate_analyze_roundtrip(tmp_path, capsys, cell, nodes):
    net = tmp_path / "net.json"
    code, out, _ = run(capsys, "generate", "--cell", cell, "--radius", "2",
                       "--d", "2.0", "--out", str(net))
    assert code == EXIT_OK
    data = json.loads(net.read_text())
    assert len(data["nodes"]) == nodes
    assert data["users"] == ["n-2_0", "n2_0"]

    code, out, _ = run(capsys, "validate", "--in", str(net))
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []

    code, out, _ = run(capsys, "analyze", "--in", str(net))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["users"] == ["n-2_0", "n2_0"]
    six = report["report"]
    assert set(six) == {"single_path", "flooding", "min_neighbourhood"}
    for entry in six.values():
        assert set(entry) == {"lower", "upper"}
        assert 0.0 < entry["lower"] <= entry["upper"]
    assert six["single_path"]["lower"] <= six["flooding"]["lower"]
    assert report["mincut"]["value"] >= six["flooding"]["upper"] - 1e-9
    assert report["mincut"]["edges"]


def test_analyze_validates_once(tmp_path, capsys, monkeypatch):
    net = tmp_path / "net.json"
    assert run(capsys, "generate", "--cell", "manhattan8", "--radius", "2",
               "--d", "2.0", "--out", str(net))[0] == EXIT_OK
    calls = []
    validate = network.validate

    def counting(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(network, "validate", counting)
    code, out, _ = run(capsys, "analyze", "--in", str(net))
    assert code == EXIT_OK
    assert json.loads(out)["report"]["flooding"]["lower"] > 0.0
    assert len(calls) == 1


HUGE_INT = 10**400  # a JSON integer literal that no float can hold


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("where,violation", [
    ("length_km", "edge a-b: int too large to convert to float"),
    ("tau", "node 'b': bad channel field in"),
])
def test_huge_integer_literal_is_a_violation(tmp_path, capsys, command, where, violation):
    doc = {"family": "tl",
           "nodes": [{"id": "a", "role": "user"}, {"id": "b", "recv": {"kind": "tl", "tau": 0.9}},
                     {"id": "c", "role": "user"}],
           "edges": [{"a": "a", "b": "b", "fibre": {"length_km": 5.0}},
                     {"a": "b", "b": "c", "fibre": {"length_km": 7.0}}],
           "users": ["a", "c"]}
    if where == "length_km":
        doc["edges"][0]["fibre"]["length_km"] = HUGE_INT
    else:
        doc["nodes"][1]["recv"]["tau"] = HUGE_INT
    code, out, err = run(capsys, command, "--in", write_json(tmp_path / "net.json", doc))
    assert code == EXIT_VALIDATION
    violations = json.loads(out if command == "validate" else err)["violations"]
    assert violations[0].startswith(violation)


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "generate", "--cell", "manhattan8", "--radius", "3",
                         "--d", "1.5", "--out", str(path))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("cell", ["triangular6", "manhattan8"])
def test_generate_writes_one_line_of_compact_json(tmp_path, capsys, cell, radius, reference_json):
    net = tmp_path / "net.json"
    code, _, _ = run(capsys, "generate", "--cell", cell, "--radius", str(radius),
                     "--d", "2.0", "--out", str(net))
    assert code == EXIT_OK
    spec = WrnSpec(cell, radius, 2.0, DEFAULT_FAMILY[cell])
    text = net.read_text(encoding="utf-8")
    assert text == json.dumps(reference_json(generate(spec)), allow_nan=False) + "\n"
    assert text.count("\n") == 1
    graph, violations = network.load_network(text)
    assert violations == []
    assert graph == generate(spec)


@pytest.mark.parametrize("flag", ["--d", "--nbar-b"])
def test_generate_refuses_an_infinite_number(tmp_path, capsys, flag):
    # JSON has no infinity: the default json.dumps would write the token Infinity.
    net = tmp_path / "net.json"
    numbers = {"--d": "2.0", "--nbar-b": "0.002", flag: "inf"}
    code, _, err = run(capsys, "generate", "--cell", "manhattan8", "--radius", "2",
                       *(x for pair in numbers.items() for x in pair), "--out", str(net))
    assert code == EXIT_INPUT
    error = json.loads(err)
    assert error["error"] == "input"
    assert f"{flag} inf" in error["message"]
    assert not net.exists()


def test_generate_rejects_small_radius(capsys):
    code, _, err = run(capsys, "generate", "--cell", "triangular6", "--radius", "1", "--d", "1.0")
    assert code == EXIT_INPUT
    assert "radius" in json.loads(err)["message"]


@contextlib.contextmanager
def address_space_limited(extra_bytes):
    """The process may map at most ``extra_bytes`` more while the block runs (Linux)."""
    import resource

    with open("/proc/self/status") as fh:
        size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    saved = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + extra_bytes, saved[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, saved)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_generate_refuses_a_radius_above_the_cap(tmp_path, capsys):
    # Without the cap this radius would build lists until memory ran out; the
    # limit turns that into a MemoryError in this process.
    net = tmp_path / "net.json"
    with address_space_limited(256 * 2**20):
        code, _, err = run(capsys, "generate", "--cell", "manhattan8", "--radius", "100000000",
                           "--d", "1", "--out", str(net))
    assert code == EXIT_INPUT
    assert json.loads(err)["message"] == (
        f"generate builds a radius of at most {wrn.MAX_GENERATE_RADIUS}, got 100000000")
    assert not net.exists()


def test_validate_reports_missing_users(tmp_path, capsys):
    net = write_json(tmp_path / "net.json", {
        "family": "ad",
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"a": "a", "b": "b", "length_km": 1.0, "gamma": 0.02}],
        "users": [],
    })
    code, out, _ = run(capsys, "validate", "--in", net)
    assert code == EXIT_VALIDATION
    violations = json.loads(out)["violations"]
    assert any("users" in v for v in violations)


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", "--in", str(bad))
    assert code == EXIT_INPUT
    assert json.loads(err)["error"] == "input"


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--in", "/nonexistent/net.json")
    assert code == EXIT_INPUT


def test_analyze_rejects_invalid_network(tmp_path, capsys):
    net = write_json(tmp_path / "net.json", {
        "family": "ad",
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"a": "a", "b": "b", "length_km": 1.0, "gamma": 0.02}],
        "users": ["a", "z"],
    })
    code, _, err = run(capsys, "analyze", "--in", net)
    assert code == EXIT_VALIDATION
    assert json.loads(err)["violations"]


@pytest.mark.parametrize("argv", [
    ["validate", "--in"],
    ["analyze", "--in"],
    ["threshold", "--target", "1e-2", "--param", "edge-length", "--spec"],
    ["sweep", "--spec"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("content, message", [
    (b"[" * 100_000 + b"]" * 100_000, "is nested too deeply to read: "),
    (b'{"nodes": "\xff"}', "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    # json.loads refuses an integer literal of more than 4300 digits with a plain ValueError.
    pytest.param(b'{"nodes": [{"id": 1' + b"0" * 5000 + b'}], "edge_length_km": 1' + b"0" * 5000 + b'}',
                 "is not valid JSON: Exceeds the limit (4300 digits)",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python converts an int of any length")),
], ids=["nested-too-deeply", "not-utf-8", "integer-too-long"])
def test_unreadable_json_is_an_input_error(tmp_path, capsys, argv, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, *argv, str(bad))
    assert (code, out) == (EXIT_INPUT, "")
    error = json.loads(err)
    assert error["error"] == "input"
    assert error["message"].startswith(f"{bad} {message}")


def test_read_json_passes_on_the_package_errors_of_its_parser(tmp_path):
    path = write_json(tmp_path / "spec.json", {})

    def parse(text):
        raise DomainError("refused by the parser")

    with pytest.raises(DomainError) as raised:
        cli._read_json(path, parse)
    assert str(raised.value) == "refused by the parser"


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_validate_and_analyze_read_through_load_network(tmp_path, monkeypatch, command):
    # The one network reader, and the name that perfbench's traced run times it under.
    net = tmp_path / "net.json"
    net.write_text("".join(network.network_json_chunks(generate(WrnSpec("manhattan8", 2, 10.0, "tl")))))
    calls = []
    load_network = network.load_network
    monkeypatch.setattr(network, "load_network", lambda text: calls.append(text) or load_network(text))
    assert main([command, "--in", str(net), "--out", str(tmp_path / "out.json")]) == EXIT_OK
    assert calls == [net.read_text()]


def _set_collector(on):
    (gc.enable if on else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["ok", "missing", "invalid", "unattainable", "uncaught"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting, outcome):
    net = tmp_path / "net.json"
    net.write_text("".join(network.network_json_chunks(generate(WrnSpec("manhattan8", 2, 10.0, "tl")))))
    spec = write_json(tmp_path / "wrn.json", MAN_SPEC)
    argv, expected = {
        "ok": (["analyze", "--in", str(net)], EXIT_OK),
        "missing": (["analyze", "--in", str(tmp_path / "absent.json")], EXIT_INPUT),
        "invalid": (["analyze", "--in", write_json(tmp_path / "bad.json", {"nodes": [], "edges": []})],
                    EXIT_VALIDATION),
        "unattainable": (["threshold", "--spec", spec, "--target", "1e9", "--param", "edge-length"],
                         EXIT_NOT_ATTAINABLE),
        "uncaught": (["analyze", "--in", str(net)], None),
    }[outcome]

    def boom(graph):
        raise RuntimeError("boom")

    if outcome == "uncaught":
        monkeypatch.setattr(network, "apply_split", boom)
    was = gc.isenabled()
    _set_collector(collecting)
    try:
        if outcome == "uncaught":
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
        else:
            assert run(capsys, *argv)[0] == expected
        assert gc.isenabled() is collecting
    finally:
        _set_collector(was)


def test_analyze_starts_no_collection(tmp_path, monkeypatch):
    net = tmp_path / "net.json"
    net.write_text("".join(network.network_json_chunks(generate(WrnSpec("manhattan8", 4, 10.0, "tl")))))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    analyze, calls = cli.cmd_analyze, []

    def watched(args):  # counts from the start of the subcommand to its end
        calls.append(args.command)
        gc.callbacks.append(count)
        try:
            return analyze(args)
        finally:
            gc.callbacks.remove(count)

    monkeypatch.setattr(cli, "cmd_analyze", watched)
    was = gc.isenabled()
    gc.enable()
    try:
        assert main(["analyze", "--in", str(net), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    finally:
        _set_collector(was)
    assert calls == ["analyze"] and starts == []
    assert json.loads((tmp_path / "report.json").read_text())["report"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a call takes over its argument's reference from CPython 3.11")
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_validate_and_analyze_peak_at_the_parsed_document(tmp_path, command):
    # Once the graph is built the document is freed, so validation, bounding
    # and routing reuse its memory: the call's peak is reading the file.
    net = tmp_path / "net.json"
    assert main(["generate", "--cell", "manhattan8", "--radius", "10", "--d", "10", "--out", str(net)]) == EXIT_OK
    argv = [command, "--in", str(net), "--out", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_OK  # imports the modules and fills the caches untraced
    tracemalloc.start()
    try:
        cli._read_json(str(net))
        parse_peak = tracemalloc.get_traced_memory()[1]  # the file text and its parsed document
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        call_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert call_peak <= 1.05 * parse_peak


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()`` above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a call takes over its argument's reference from CPython 3.11")
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_validate_and_analyze_never_hold_the_parsed_document(tmp_path, command):
    # The records are decoded one at a time, so a call peaks well below the
    # document that json.load builds (about equal to it before).
    net = tmp_path / "net.json"
    assert main(["generate", "--cell", "manhattan8", "--radius", "10", "--d", "10", "--out", str(net)]) == EXIT_OK
    argv = [command, "--in", str(net), "--out", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_OK  # imports the modules and fills the caches untraced
    parse_peak = traced_peak(lambda: cli._read_json(str(net)))
    codes = []
    call_peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [EXIT_OK]
    assert call_peak <= 0.5 * parse_peak


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a call takes over its argument's reference from CPython 3.11")
def test_validate_of_a_hetero_lattice_peaks_below_the_parsed_document(tmp_path):
    # A device on every node and a fibre of its own on every edge, as perfbench's
    # hetero lattices: read in runs, whose columns stay small beside the document.
    rng, graph = random.Random(10), generate(WrnSpec("manhattan8", 10, 10.0, "tl"))
    n, m = len(graph.role), len(graph.a)
    devices = [ThermalLoss(rng.uniform(0.8, 1.0), rng.uniform(0.0, 0.02)) for _ in range(2 * n)]
    graph = graph._replace(recv=tuple(devices[:n]), send=tuple(devices[n:]), cls=tuple(range(m)),
                           classes=tuple(FibreParams(rng.uniform(1.0, 40.0)) for _ in range(m)))
    net = tmp_path / "net.json"
    net.write_text("".join(network.network_json_chunks(graph)))
    argv = ["validate", "--in", str(net), "--out", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_OK  # imports the modules and fills the caches untraced
    parse_peak = traced_peak(lambda: cli._read_json(str(net)))
    codes = []
    call_peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [EXIT_OK]
    assert call_peak < parse_peak


def test_generate_peaks_below_twice_its_file(tmp_path):
    # The file is written in pieces, so the whole text never exists.
    net = tmp_path / "net.json"
    argv = ["generate", "--cell", "manhattan8", "--radius", "10", "--d", "10", "--out", str(net)]
    assert main(argv) == EXIT_OK  # imports the modules untraced
    codes = []
    call_peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [EXIT_OK]
    assert call_peak <= 2 * net.stat().st_size


def test_threshold_edge_length_structure(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", MAN_SPEC)
    code, out, _ = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["cell"] == "manhattan8"
    assert data["k"] == 8
    assert data["delta"] == 32
    assert data["omega"] == "224/25"
    assert data["omega_value"] == pytest.approx(224 / 25)
    bulk = data["bulk"]
    assert list(bulk) == ["param", "x", "bracket", "direction", "target"]
    assert bulk["x"] == "delta"
    assert data["user"]["x"] == "omega"
    assert bulk["bracket"][0] <= bulk["bracket"][1]
    rho = data["rho_min"]
    assert rho["bracket"][0] <= rho["midpoint"] <= rho["bracket"][1]


def test_threshold_receiver_noise_has_no_density(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", MAN_SPEC)
    code, out, _ = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e-2", "--param", "receiver-noise")
    assert code == EXIT_OK
    assert "rho_min" not in json.loads(out)


def test_threshold_unattainable_target(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", MAN_SPEC)
    code, _, err = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e9", "--param", "edge-length")
    assert code == EXIT_NOT_ATTAINABLE
    assert json.loads(err)["error"] == "not-attainable"


def test_a_pure_loss_solve_refuses_unit_transmissivity(tmp_path, capsys):
    # Halving the edge length toward a goal no fibre reaches ends at a compound of
    # transmissivity 1, which the solver refuses where a graph bounds it inf.
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "nbar_B": 0.0})
    code, _, err = run(capsys, "threshold", "--spec", spec, "--target", "1e9", "--param", "edge-length")
    assert code == EXIT_NOT_ATTAINABLE
    assert json.loads(err)["message"] == ("per-edge target 3.125e+07 is out of reach: "
                                          "transmissivity 1 is divergent; treat as infinite capacity explicitly")


@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_a_target_whose_per_edge_goal_underflows_is_refused(tmp_path, capsys, command):
    # 5e-324 / delta rounds to 0, which the bound meets where it is 0: at the far end of the scan.
    argv = {
        "threshold": ["--spec", write_json(tmp_path / "wrn.json", MAN_SPEC),
                      "--target", "5e-324", "--param", "edge-length"],
        "sweep": ["--spec", write_json(tmp_path / "sweep.json", {
            "variable": "targetCapacity", "start": 5e-324, "stop": 1e-2, "steps": 3, "scale": "log",
            "wrn": MAN_SPEC})],
    }[command]
    code, out, err = run(capsys, command, *argv)
    assert code == EXIT_INPUT and out == ""
    assert json.loads(err) == {"error": "input", "message": "per-edge target 5e-324/32.0 underflows to 0"}


def test_threshold_rejects_unknown_spec_key(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "colour": "blue"})
    code, _, err = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_INPUT
    assert "colour" in json.loads(err)["message"]


MALFORMED_LATTICE = [
    ("radius", "x"),
    ("radius", None),
    ("radius", 2.9),  # int() would truncate it to 2
    ("radius", "2.9"),
    ("edge_length_km", "ten"),
    ("edge_length_km", "nan"),
    ("edge_length_km", 0),
    ("gamma", [1]),
    ("gamma", -0.02),
    ("gamma", -1e308),
    ("gamma", "nan"),
    ("nbar_B", -1.0),
    ("nbar_B", "nan"),
    ("cell", [1]),
    ("qkd_setup", {"wavelength": "zz"}),
]
MALFORMED_SWEEP = [
    ("stop", {"stop": "x"}),
    ("target", {"target": "abc"}),
    ("param", {"variable": "targetCapacity", "param": [1]}),
    ("start", {"start": -1e308, "stop": 1e308}),
    ("stop", {"stop": "inf"}),
]
EDGE_SWEEP = {"variable": "edgeLength", "start": 5.0, "stop": 20.0, "steps": 2,
              "target": 1e-2, "wrn": TRI_SPEC}


@pytest.mark.parametrize(
    "command,key,lattice,sweep",
    [pytest.param(command, key, {key: value}, {}, id=f"{command}-{key}={json.dumps(value)}")
     for command in ("threshold", "sweep") for key, value in MALFORMED_LATTICE]
    + [pytest.param("sweep", key, {}, fields, id=f"sweep-{json.dumps(fields)}")
       for key, fields in MALFORMED_SWEEP],
)
def test_malformed_spec_value_is_input_error(tmp_path, capsys, command, key, lattice, sweep):
    if command == "threshold":
        spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, **lattice})
        argv = ["threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length"]
    else:
        spec = write_json(tmp_path / "sweep.json",
                          {**EDGE_SWEEP, "wrn": {**TRI_SPEC, **lattice}, **sweep})
        argv = ["sweep", "--spec", spec]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    error = json.loads(err)
    assert error["error"] == "input"
    assert key in error["message"]


@pytest.mark.parametrize("command", ["threshold", "sweep"])
@pytest.mark.parametrize("field,value", [
    ("wavelength", 1e308),
    ("wavelength", "1e999"),
    ("p_lo", 1e-310),
    ("nep", 1e200),
    ("preset", []),
])
def test_malformed_qkd_setup_is_input_error(tmp_path, capsys, command, field, value):
    # Thermal lattices, so the QKD receiver model is evaluated; the message
    # names the qkd_setup field rather than the spec key.
    lattice = {**MAN_SPEC, "qkd_setup": {field: value}}
    if command == "threshold":
        spec = write_json(tmp_path / "wrn.json", lattice)
        argv = ["threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length"]
    else:
        spec = write_json(tmp_path / "sweep.json", {**EDGE_SWEEP, "wrn": lattice})
        argv = ["sweep", "--spec", spec]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    error = json.loads(err)
    assert error["error"] == "input"
    assert field in error["message"]


# A JSON boolean is not a number, though float() and int() read it as 1 or 0.
BOOLEAN_SPEC_VALUES = [
    ("threshold", "radius", {"radius": True}, {}),
    ("threshold", "edge_length_km", {"edge_length_km": True}, {}),
    ("threshold", "gamma", {"gamma": False}, {}),
    ("threshold", "nbar_B", {"nbar_B": True}, {}),
    ("threshold", "'tau'", {"recv": {"kind": "tl", "tau": True}}, {}),
    ("threshold", "'nbar'", {"send": {"kind": "tl", "tau": 0.9, "nbar": False}}, {}),
    ("threshold", "qkd_setup.nu_det", {"qkd_setup": {"nu_det": True}}, {}),
    ("sweep", "'p'", {"recv": {"kind": "ad", "p": False}}, {}),
    ("sweep", "start", {}, {"variable": "targetCapacity", "scale": "log", "start": False, "stop": 0.1}),
    ("sweep", "stop", {}, {"stop": True}),
    ("sweep", "target", {}, {"target": True}),
]


@pytest.mark.parametrize("command,key,lattice,sweep", [
    pytest.param(*case, id=f"{case[0]}-{json.dumps({**case[2], **case[3]})}") for case in BOOLEAN_SPEC_VALUES])
def test_boolean_spec_value_is_input_error(tmp_path, capsys, command, key, lattice, sweep):
    if command == "threshold":
        spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, **lattice})
        argv = ["threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length"]
    else:
        spec = write_json(tmp_path / "sweep.json", {**EDGE_SWEEP, "wrn": {**TRI_SPEC, **lattice}, **sweep})
        argv = ["sweep", "--spec", spec]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    error = json.loads(err)
    assert error["error"] == "input"
    assert key in error["message"]
    assert "True" in error["message"] or "False" in error["message"]  # refused as a boolean, not as 1 or 0


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("where,violation", [
    ("length_km", "edge a-b: fibre fields must be numbers, got {'length_km': True}"),
    ("tau", "node 'b': channel field 'tau' must be a number, got True"),
])
def test_boolean_network_value_is_a_violation(tmp_path, capsys, command, where, violation):
    doc = {"family": "tl",
           "nodes": [{"id": "a", "role": "user"}, {"id": "b", "recv": {"kind": "tl", "tau": 1.0}},
                     {"id": "c", "role": "user"}],
           "edges": [{"a": "a", "b": "b", "fibre": {"length_km": 1.0}},
                     {"a": "b", "b": "c", "fibre": {"length_km": 7.0}}],
           "users": ["a", "c"]}
    if where == "length_km":
        doc["edges"].insert(0, {"a": "a", "b": "b", "fibre": {"length_km": True}})
    else:
        doc["nodes"][1]["recv"]["tau"] = True
    code, out, err = run(capsys, command, "--in", write_json(tmp_path / "net.json", doc))
    assert code == EXIT_VALIDATION
    assert json.loads(out if command == "validate" else err)["violations"][0] == violation


def test_numeric_strings_in_spec_still_parse(tmp_path, capsys):
    argv = ["--target", "1e-2", "--param", "edge-length"]
    plain = write_json(tmp_path / "plain.json", MAN_SPEC)
    quoted = write_json(tmp_path / "quoted.json", {**MAN_SPEC, "radius": "2", "edge_length_km": "10"})
    assert run(capsys, "threshold", "--spec", quoted, *argv) == run(capsys, "threshold", "--spec", plain, *argv)
    whole = write_json(tmp_path / "whole.json", {**MAN_SPEC, "radius": 2.0})
    assert run(capsys, "threshold", "--spec", whole, *argv) == run(capsys, "threshold", "--spec", plain, *argv)
    sweeps = [write_json(tmp_path / f"sweep{i}.json", {**EDGE_SWEEP, "wrn": {**TRI_SPEC, "radius": radius}})
              for i, radius in enumerate([2, 2.0, "2"])]
    outputs = [run(capsys, "sweep", "--spec", sweep) for sweep in sweeps]
    assert outputs[0][0] == EXIT_OK and "radius=2 " in outputs[0][1]
    assert outputs[1] == outputs[0] == outputs[2]


def test_cli_import_does_not_load_scipy(tmp_path):
    # Nor numpy, nor the verifiers: only selftest loads the oracles, and a log
    # sweep, generate and analyze run without them.
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 3, "scale": "log",
        "wrn": MAN_SPEC,
    })
    net = str(tmp_path / "net.json")
    probe = (
        "import sys, qnetcap.cli; "
        f"assert qnetcap.cli.main(['sweep', '--spec', {spec!r}, '--out', {str(tmp_path / 'out.csv')!r}]) == 0; "
        f"assert qnetcap.cli.main(['generate', '--cell', 'manhattan8', '--radius', '2', '--d', '2.0', "
        f"'--out', {net!r}]) == 0; "
        f"assert qnetcap.cli.main(['analyze', '--in', {net!r}, '--out', {str(tmp_path / 'report.json')!r}]) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy') "
        "or m in ('qnetcap.oracles', 'qnetcap.selfcheck')))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# The qnetcap modules that each subcommand loads: validating a network
# needs no bounds, bounding one needs no solver, a threshold solve builds no
# graph, and only a QKD receiver loads its models. No subcommand loads dataclasses or inspect, which the
# records do without, nor fractions (with its decimal and numbers), as omega is
# a pair of integers, nor argparse (with its gettext and locale), as a
# well-formed call is read from the flag table.
GRAPH_MODULES = {"qnetcap.network", "qnetcap.channels", "qnetcap.errors"}
SOLVER_MODULES = {"qnetcap.wrn", "qnetcap.bounds", "qnetcap.channels", "qnetcap.errors"}
PROBED_STDLIB = ("fractions", "decimal", "numbers", "dataclasses", "inspect", "argparse", "gettext", "locale")


def _probe(code: str) -> str:
    """What a fresh interpreter that imports the package from ``src`` prints running ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    return proc.stdout


def _modules_loaded_by(argv: list[str]) -> list[str]:
    """The printed lines of a fresh ``main(argv)``, the last being the qnetcap and probed stdlib modules loaded."""
    return _probe(
        "import sys, qnetcap.cli; "
        f"assert qnetcap.cli.main({argv!r}) == 0; "
        f"print(sorted(m for m in sys.modules if m.startswith('qnetcap') or m in {PROBED_STDLIB!r}))"
    ).splitlines()


def _subcommand_argv(tmp_path, command: str) -> list[str]:
    """A small valid call of ``command``; all but selftest write to a file."""
    net = tmp_path / "net.json"
    net.write_text("".join(network.network_json_chunks(generate(WrnSpec("manhattan8", 2, 2.0, "tl")))))
    argv = {
        "generate": ["--cell", "manhattan8", "--radius", "2", "--d", "2.0"],
        "validate": ["--in", str(net)],
        "analyze": ["--in", str(net)],
        "threshold": ["--spec", write_json(tmp_path / "wrn.json", MAN_SPEC),
                      "--target", "1e-2", "--param", "edge-length"],
        "sweep": ["--spec", write_json(tmp_path / "sweep.json", {
            "variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 3, "wrn": MAN_SPEC})],
        "selftest": ["--count", "2"],
    }[command]
    out = [] if command == "selftest" else ["--out", str(tmp_path / "out")]
    return [command, *argv, *out]


@pytest.mark.parametrize("command,loads", [
    ("generate", GRAPH_MODULES | {"qnetcap.wrn"}),
    ("validate", GRAPH_MODULES | {"qnetcap.reader"}),
    ("analyze", GRAPH_MODULES | {"qnetcap.reader", "qnetcap.bounds", "qnetcap.routing"}),
    ("threshold", SOLVER_MODULES),
    ("sweep", SOLVER_MODULES | {"qnetcap.sweep"}),
    ("selftest", GRAPH_MODULES | SOLVER_MODULES | {"qnetcap.routing", "qnetcap.oracles", "qnetcap.selfcheck"}),
])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, command, loads):
    lines = _modules_loaded_by(_subcommand_argv(tmp_path, command))
    assert lines[-1] == repr(sorted(loads | {"qnetcap", "qnetcap.cli"}))
    assert command == "selftest" or len(lines) == 1  # selftest prints its batteries; an --out run prints nothing


def test_validate_compiles_only_the_punctuation_pattern(tmp_path):
    # A fresh process pays for every pattern it compiles, so reading a network
    # compiles the punctuation pattern once, and the package compiles nothing
    # per call or per record; generate, which reads no network, compiles none.
    for command, patterns in (("validate", [reader._PUNCT.pattern]), ("generate", [])):
        argv = _subcommand_argv(tmp_path, command)
        lines = _probe(
            "import re, sys\n"
            "compiled, compile_ = [], re._compile\n"
            "def recording(pattern, flags):\n"
            "    frame = sys._getframe(1)\n"
            "    while frame.f_globals['__name__'].split('.')[0] == 're':\n"
            "        frame = frame.f_back\n"
            "    if frame.f_globals['__name__'].startswith('qnetcap'):\n"
            "        compiled.append(pattern)\n"
            "    return compile_(pattern, flags)\n"
            "re._compile = recording\n"
            "import qnetcap.cli\n"
            f"assert qnetcap.cli.main({argv!r}) == 0\n"
            "print(repr(compiled))"
        ).splitlines()
        assert lines == [repr(patterns)]


@pytest.mark.parametrize("command,spec", [
    ("threshold", {**MAN_SPEC, "qkd_setup": "table1-heterodyne-llo"}),
    ("sweep", {"variable": "edgeLength", "start": 5.0, "stop": 10.0, "steps": 2, "target": 1e-2, "wrn": MAN_SPEC}),
], ids=["threshold-qkd_setup", "sweep-edgeLength"])
def test_a_qkd_receiver_loads_the_receiver_models(tmp_path, command, spec):
    # A spec that names a QKD setup, and a thermal edgeLength sweep, whose nbar_r_* columns are QKD receivers.
    extra = ["--target", "1e-2", "--param", "edge-length"] if command == "threshold" else []
    lines = _modules_loaded_by([command, "--spec", write_json(tmp_path / "spec.json", spec), *extra,
                                "--out", str(tmp_path / "out")])
    table = {"qnetcap.sweep"} if command == "sweep" else set()
    assert lines == [repr(sorted(SOLVER_MODULES | table | {"qnetcap", "qnetcap.cli", "qnetcap.qkd"}))]


@pytest.mark.parametrize("name,argv", [
    ("help", ["--help"]),
    ("usage-threshold-bad-target", ["threshold", "--spec", "wrn.json", "--target", "x", "--param", "edge-length"]),
])
def test_help_and_a_usage_error_print_the_pinned_text_from_a_fresh_process(python, name, argv):
    # Only such calls load argparse, so its text and exit code are pinned through the process entry too.
    proc = python("-m", "qnetcap.cli", *argv, env={"COLUMNS": "80"}, capture_output=True, text=True)
    pinned = json.loads((Path(__file__).resolve().parent / "golden" / "usage.json").read_text())[name]
    assert {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr} == pinned


# The table reader against argparse: flags, values and tokens that each take one of the two paths.
_DECLINED = ["-h", "--help", "--", "--rad", "--out=x", "--bogus", "-1e-2", "-1", "-", "", "generate"]
# Each type's first four values convert, the rest do not.
_VALUES = {int: ["2", "20", "1_0", " 7 ", "2.5", "x", "-", ""],
           float: ["1e-2", "10", "nan", " inf", "x", "1e", "", "-"]}


@st.composite
def _well_formed(draw):
    """A call that the table reader takes: a subcommand, then its flags in any order, some
    repeated, with values that pass their type and choices."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[command][1]
    chosen = [flag for flag, spec in flags.items() if spec.get("required") or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(list(flags)), max_size=2))
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        spec = flags[flag]
        if "choices" in spec:
            value = draw(st.sampled_from(list(spec["choices"])))
        elif "type" in spec:
            value = draw(st.sampled_from(_VALUES[spec["type"]][:4]))
        else:
            value = draw(st.text(st.characters(blacklist_characters="-\x00"), max_size=4) | st.just("x"))
        argv += [flag, value]
    return argv


@st.composite
def _any_call(draw):
    """A well-formed call with tokens replaced, inserted or dropped: every way a call leaves the reader."""
    argv = draw(_well_formed())
    flags = list(cli._COMMANDS[argv[0]][1])
    token = st.sampled_from(_DECLINED + flags + _VALUES[int] + _VALUES[float] + ["edge", "ad", "manhattan8"])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["value", "replace", "insert", "drop"]))
        if edit == "value" and len(argv) > 2:
            argv[draw(st.sampled_from(range(2, len(argv), 2)))] = draw(token)
        elif edit == "insert" or i == len(argv):
            argv.insert(i, draw(token | st.text(max_size=3)))
        elif edit == "replace":
            argv[i] = draw(token)
        else:
            del argv[i]
    return argv


def _argparse_vars(argv: list[str]) -> str | None:
    """``vars`` of argparse's reading of ``argv`` as ``_vars`` gives it, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _vars(args) -> str:
    """``vars(args)`` by name as text, so that two readings of ``--d nan`` compare equal."""
    return repr(sorted(vars(args).items()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_well_formed())
def test_the_table_reader_takes_every_well_formed_call_as_argparse_does(argv):
    read = cli._read_argv(argv)
    assert read is not None and _vars(read) == _argparse_vars(argv)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_any_call())
@example(["threshold", "--spec", "s", "--target", "-1", "--param", "edge-length"])  # argparse takes -1 ...
@example(["threshold", "--spec", "s", "--target", "-1e-2", "--param", "edge-length"])  # ... and refuses -1e-2
@example(["threshold", "--spec", "s", "--target", "1", "--param", "edge"])
@example(["analyze", "--i", "net.json"])
@example(["selftest", "--count=2"])
@example(["selftest", "--", "--count", "2"])
@example([])
def test_the_table_reader_answers_as_argparse_or_declines(argv):
    read, expected = cli._read_argv(argv), _argparse_vars(argv)
    assert (read is None) if expected is None else (read is None or _vars(read) == expected)


def test_main_reads_the_command_line_when_given_no_arguments(tmp_path, monkeypatch):
    out = tmp_path / "net.json"
    monkeypatch.setattr(sys, "argv", ["qnetcap", "generate", "--cell", "manhattan8", "--radius", "2", "--d", "2",
                                      "--out", str(out)])
    assert main() == EXIT_OK and out.exists()


def test_a_spec_helper_runs_before_main():
    # Each function imports the package modules it calls, so no helper relies on main having run.
    assert _probe(f"import qnetcap.wrn as wrn; print(wrn._parse_wrn_spec({MAN_SPEC!r})[0].k)") == "8\n"


def test_cli_tables_spell_the_solver_parameters():
    # cli spells the names so that parsing a flag loads no solver; the sweep tables key on wrn's.
    params = {wrn.PARAM_EDGE_LENGTH, wrn.PARAM_INTERNAL_LOSS, wrn.PARAM_RECEIVER_NOISE}
    assert set(_PARAM_BY_FLAG.values()) == set(_SOLVED_STEM) == params
    assert {variable for variable, _ in _SWEEPS} == params == set(SWEEP_VARIABLES) - {"targetCapacity"}


def test_threshold_family_mismatch(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", MAN_SPEC)
    code, _, err = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e-3", "--param", "internal-loss")
    assert code == EXIT_INPUT


def test_threshold_names_a_template_of_the_other_family_by_its_json(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", {"cell": "manhattan8", "radius": 2, "edge_length_km": 10,
                                              "recv": {"kind": "ad", "p": 0.1}})
    code, out, err = run(capsys, "threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_INPUT and out == ""
    assert json.loads(err) == {"error": "input",
                               "message": "internal template {'kind': 'ad', 'p': 0.1} does not match family 'tl'"}


def test_sweep_target_capacity_rows(tmp_path, capsys):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity",
        "start": 1e-3, "stop": 1e-2, "steps": 2, "scale": "log",
        "wrn": MAN_SPEC,
    })
    code, out, _ = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "# qnetcap-sweep/1"
    assert "variable=targetCapacity" in lines[1]
    assert lines[2] == "target_capacity,d_max_lower,d_max_upper,rho_min_lower,rho_min_upper"
    assert len(lines) == 5
    first = [float(x) for x in lines[3].split(",")]
    assert first[0] == pytest.approx(1e-3)
    assert first[1] <= first[2]
    # density shrinks as tolerable distance grows, so rho columns invert
    assert first[3] >= first[4]


def test_readme_target_capacity_sweep_converges(tmp_path, capsys):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity",
        "start": 1e-4, "stop": 1e-1, "steps": 40, "scale": "log",
        "wrn": MAN_SPEC,
    })
    code, out, err = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_OK, err
    rows = out.splitlines()[3:]
    assert len(rows) == 40
    for line in rows:
        target, lo, up, _, _ = (float(x) for x in line.split(","))
        assert 0.0 < lo <= up


def grid(start, stop, steps, scale):
    return _sweep_points({"start": start, "stop": stop, "steps": steps, "scale": scale})


@settings(max_examples=500, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False),
       st.integers(2, 200))
@example(a=0.0, b=1e-323, steps=5)  # subnormal spans, where the step itself rounds to 0
@example(a=-5e-324, b=5e-324, steps=7)
def test_linear_grid_is_numpy_linspace_bit_for_bit(a, b, steps):
    start, stop = sorted((a, b))
    assume(start < stop and math.isfinite(stop - start))
    xs = grid(start, stop, steps, "linear")
    with np.errstate(over="ignore"):  # its last step can overflow before stop is pinned
        ref = np.linspace(start, stop, steps)
    assert [x.hex() for x in xs] == [float(x).hex() for x in ref]


@settings(max_examples=500, derandomize=True)
@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(2, 200))
def test_log_grid_keeps_endpoints_and_tracks_numpy_geomspace(a, b, steps):
    start, stop = sorted((a, b))
    # Room for 200 distinct powers between the endpoints.
    assume(math.log10(stop) - math.log10(start) >= 1e-6)
    # A log10 that rounds differently from numpy's moves every interior
    # exponent, which 10**y magnifies by ln(10)*|y|; compare the powers alone.
    assume(all(math.log10(x) == np.log10(x) for x in (start, stop)))
    xs = grid(start, stop, steps, "log")
    assert xs[0] == start and xs[-1] == stop
    assert all(a < b for a, b in zip(xs, xs[1:]))
    for x, ref in zip(xs, np.geomspace(start, stop, steps)):
        assert abs(x - ref) <= math.ulp(ref)


@pytest.mark.parametrize("start", [1e-3, math.nextafter(sys.float_info.max, 0.0)])
def test_log_grid_stays_finite_up_to_the_largest_float(start):
    stop = sys.float_info.max
    xs = grid(start, stop, 5, "log")
    assert xs[0] == start and xs[-1] == stop
    assert all(start <= x <= stop for x in xs)


def test_log_grid_points_are_correctly_rounded():
    # Two cells of the 40-step 1e-4..1e-1 grid where numpy's power is 1 ulp
    # off the exact 10**y; the pure-math grid rounds them correctly.
    xs = grid(1e-4, 1e-1, 40, "log")
    ys = np.linspace(math.log10(1e-4), math.log10(1e-1), 40)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for i, expected in ((4, 0.0002030917620904735), (36, 0.05878016072274912)):
            assert xs[i] == expected
            exact = decimal.Decimal(10) ** decimal.Decimal(float(ys[i]))
            assert abs(decimal.Decimal(xs[i]) - exact) < decimal.Decimal(math.ulp(expected)) / 2


def test_sweep_edge_length_ad_header(tmp_path, capsys):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "edgeLength",
        "start": 5.0, "stop": 20.0, "steps": 2,
        "target": 1e-2,
        "wrn": TRI_SPEC,
    })
    code, out, _ = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[2] == "edge_length_km,p_int_max_lower,p_int_max_upper"
    assert len(lines) == 5


def test_sweep_edge_length_tl_has_qkd_columns(tmp_path, capsys):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "edgeLength",
        "start": 10.0, "stop": 40.0, "steps": 3,
        "target": 1e-2,
        "wrn": MAN_SPEC,
    })
    code, out, _ = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[2] == "edge_length_km,nbar_r_max_lower,nbar_r_max_upper,nbar_r_llo,nbar_r_tlo"
    assert len(lines) == 6
    for line in lines[3:]:
        row = [float(x) for x in line.split(",")]
        assert row[3] > 0.0 and row[4] > 0.0


@pytest.mark.parametrize("placement", ["wrn", "top"])
def test_receiver_noise_sweep_rejects_qkd_setup(tmp_path, capsys, placement):
    # The QKD receiver would replace the swept noise, so every row would match.
    sweep = {"variable": "receiverNoise", "start": 0.0, "stop": 0.1, "steps": 4, "target": 1e-2,
             "wrn": {**MAN_SPEC, "qkd_setup": "table1-heterodyne-llo"}}
    if placement == "top":
        sweep = {**sweep, "wrn": MAN_SPEC, "qkd_setup": "table1-heterodyne-llo"}
    code, out, err = run(capsys, "sweep", "--spec", write_json(tmp_path / "sweep.json", sweep))
    assert code == EXIT_INPUT
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "input"
    assert "qkd_setup" in error["message"]


@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_receiver_noise_solves_reject_qkd_setup(tmp_path, capsys, command):
    # The QKD receiver model sets the receiver noise that the solve varies.
    wrn_spec = {**MAN_SPEC, "qkd_setup": "table1-heterodyne-llo"}
    if command == "threshold":
        argv = ("--spec", write_json(tmp_path / "wrn.json", wrn_spec),
                "--target", "1e-3", "--param", "receiver-noise")
    else:
        argv = ("--spec", write_json(tmp_path / "sweep.json", {
            "variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 3, "scale": "log",
            "param": "receiverNoise", "wrn": wrn_spec}))
    code, out, err = run(capsys, command, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "input"
    assert "qkd_setup" in error["message"]


def test_receiver_noise_on_a_dark_fibre_is_not_attainable(tmp_path, capsys):
    # At gamma = 0.02 the transmissivity 10^(-gamma d) is 0.0 from about 16.2k km.
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "edge_length_km": 20000.0})
    code, out, err = run(capsys, "threshold", "--spec", spec, "--target", "1e-3", "--param", "receiver-noise")
    assert code == EXIT_NOT_ATTAINABLE
    assert out == ""
    assert json.loads(err)["error"] == "not-attainable"
    sweep = write_json(tmp_path / "sweep.json", {
        "variable": "edgeLength", "start": 10000.0, "stop": 20000.0, "steps": 6, "target": 1e-3,
        "wrn": MAN_SPEC,
    })
    code, out, err = run(capsys, "sweep", "--spec", sweep)
    assert code == EXIT_OK, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[3:]]
    assert [row[0] for row in rows] == [10000.0, 12000.0, 14000.0, 16000.0, 18000.0, 20000.0]
    for d, lo, up, llo, tlo in rows:
        assert math.isnan(lo) and math.isnan(up)
        # No light arrives from ~16,180 km, where a local LO still adds its electronic noise;
        # the transmitted LO's detected power underflows from ~15,210 km, where its noise is inf.
        assert math.isfinite(llo)
        assert math.isinf(tlo) == (d > 15210.0)


@pytest.mark.parametrize("gamma", [0.31, 0.35, 1.0])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_qkd_edge_length_solve_scans_past_the_last_light(tmp_path, capsys, gamma, preset):
    # The scan samples lengths up to 1000 km, where these fibres transmit nothing
    # (or the transmitted LO's detected power underflows); the solve still brackets.
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "gamma": gamma, "qkd_setup": preset})
    code, out, err = run(capsys, "threshold", "--spec", spec, "--param", "edge-length", "--target", "1e-2")
    assert code == EXIT_OK, err
    report = json.loads(out)
    for side in ("bulk", "user"):
        lo, hi = report[side]["bracket"]
        assert 0.0 < lo <= hi < math.inf


def test_internal_loss_solve_near_full_fibre_loss(tmp_path, capsys):
    # The fibre transmits about 1e-12, so the damping bounds are about 4e-13
    # and the internal loss moves them in their 13th digit. Computed through
    # the damping probability 1 - eta, eta is lost to rounding, and the scan
    # sees the lower bound rise: "not monotone", exit 5, for every target.
    spec = write_json(tmp_path / "wrn.json", {"cell": "triangular6", "radius": 2, "family": "ad",
                                              "edge_length_km": 60.19673081209978, "gamma": 0.2})
    argv = ("threshold", "--spec", spec, "--param", "internal-loss", "--target")
    code, out, err = run(capsys, *argv, "1e-12")
    assert code == EXIT_OK, err
    report = json.loads(out)
    for side in ("bulk", "user"):
        lo, hi = report[side]["bracket"]
        assert 0.0 < lo < hi < 1.0
    # Per-edge bounds below 1e-12 cannot carry 7.8e-4 end to end.
    code, out, err = run(capsys, *argv, "7.803142414353759e-4")
    assert (code, out, json.loads(err)["error"]) == (EXIT_NOT_ATTAINABLE, "", "not-attainable")


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_infinite_loss_rate_is_a_violation(tmp_path, capsys, command):
    # 10^(-inf * 0) is nan, so an infinite gamma is refused where the fibre is read.
    net = write_json(tmp_path / "net.json", {
        "family": "tl", "nodes": [{"id": "a", "role": "user"}, {"id": "b"}, {"id": "c", "role": "user"}],
        "edges": [{"a": "a", "b": "b", "fibre": {"length_km": 0, "gamma": math.inf}},
                  {"a": "b", "b": "c", "fibre": {"length_km": 5.0}}],
        "users": ["a", "c"],
    })
    code, out, err = run(capsys, command, "--in", net)
    assert code == EXIT_VALIDATION
    violations = json.loads(out if command == "validate" else err)["violations"]
    assert violations == ["edge a-b: loss rate must be finite and > 0 per km, got inf"]


@pytest.mark.parametrize("cell", ["manhattan8", "triangular6"])
def test_analyze_gives_a_dark_fibre_network_capacity_zero(tmp_path, capsys, cell):
    # 20,000 km of fibre transmits 10^(-400), which is 0.0; a file may also say 1e400 km.
    net = tmp_path / "net.json"
    code, _, err = run(capsys, "generate", "--cell", cell, "--radius", "2", "--d", "20000", "--out", str(net))
    assert code == EXIT_OK, err
    huge = tmp_path / "huge.json"
    huge.write_text(net.read_text().replace('"length_km": 20000.0', '"length_km": 1e400'))
    for path in (net, huge):
        code, out, err = run(capsys, "validate", "--in", str(path))
        assert (code, json.loads(out)) == (EXIT_OK, {"violations": []})
        code, out, err = run(capsys, "analyze", "--in", str(path))
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert all(side == 0.0 for entry in report["report"].values() for side in entry.values())
        assert report["mincut"]["value"] == 0.0


@pytest.mark.parametrize("gamma", [0.33, 1.0, 2.0])
@pytest.mark.parametrize("cell, fam", [("manhattan8", "tl"), ("triangular6", "ad")])
def test_edge_length_solves_on_lossy_fibre(tmp_path, capsys, cell, fam, gamma):
    # The scan samples up to 1000 km, where 10^(-gamma d) is 0.0 from gamma 0.33 on.
    lattice = {"cell": cell, "family": fam, "radius": 2, "edge_length_km": 10.0, "gamma": gamma}
    spec = write_json(tmp_path / "wrn.json", lattice)
    code, out, err = run(capsys, "threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_OK, err
    report = json.loads(out)
    for side in ("bulk", "user"):
        lo, hi = report[side]["bracket"]
        assert 0.0 < lo <= hi < math.inf
    sweep = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 5, "scale": "log", "wrn": lattice})
    code, out, err = run(capsys, "sweep", "--spec", sweep)
    assert code == EXIT_OK, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[3:]]
    assert len(rows) == 5
    assert not any(math.isnan(x) for row in rows for x in row)


def test_analyze_bounds_an_underflowing_compound_by_zero(tmp_path, capsys):
    # Each direction passes 1e-200 * 0.5 * 1e-200, which is 0.0.
    device = {"kind": "tl", "tau": 1e-200, "nbar": 0.0}
    net = write_json(tmp_path / "net.json", {
        "family": "tl",
        "nodes": [{"id": user, "role": "user", "recv": device, "send": device} for user in ("a", "b")],
        "edges": [{"a": "a", "b": "b", "channel": {"kind": "tl", "tau": 0.5, "nbar": 0.01}}],
        "users": ["a", "b"],
    })
    code, out, err = run(capsys, "analyze", "--in", net)
    assert code == EXIT_OK, err
    report = json.loads(out)["report"]
    assert [side for entry in report.values() for side in entry.values()] == [0.0] * 6


def test_qkd_setup_has_no_background_photon_key(tmp_path, capsys):
    # The fibre background is the lattice's nbar_B; the receiver has none.
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "qkd_setup": {"nbar_B": 0.002}})
    code, _, err = run(capsys, "threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_INPUT
    assert json.loads(err)["message"] == "unknown qkd_setup keys: nbar_B"


def test_sweep_writes_nan_where_a_bound_is_constant_below_the_target(tmp_path, capsys):
    # From ~92.4 km on even a noiseless receiver leaves the lower bound at 0.
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "edgeLength", "start": 1.0, "stop": 100.0, "steps": 40, "target": 1e-2,
        "wrn": {**MAN_SPEC, "recv": {"kind": "tl", "tau": 0.8, "nbar": 0.0}},
    })
    code, out, err = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_OK, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[3:]]
    assert len(rows) == 40
    for d, lo, up, _, _ in rows:
        assert math.isnan(lo) == (d > 92.0)
        assert up > 0.0


def test_constant_bound_below_target_is_not_attainable(tmp_path, capsys):
    # The fibre or the QKD receiver noise leaves the bound at 0 on the whole bracket.
    sweep = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 3, "scale": "log",
        "param": "internalLoss", "wrn": {**TRI_SPEC, "edge_length_km": 1e308},
    })
    code, out, err = run(capsys, "sweep", "--spec", sweep)
    assert code == EXIT_OK, err
    assert [line.split(",")[1:] for line in out.splitlines()[3:]] == [["nan", "nan"]] * 3
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "qkd_setup": {"bandwidth": 1e308, "dt_lo": 1e308}})
    code, _, err = run(capsys, "threshold", "--spec", spec, "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_NOT_ATTAINABLE
    assert json.loads(err)["error"] == "not-attainable"


def test_sweep_rejects_unknown_key(tmp_path, capsys):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity",
        "start": 1e-3, "stop": 1e-2, "steps": 2,
        "wrn": MAN_SPEC,
        "speed": "fast",
    })
    code, _, err = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_INPUT
    assert "speed" in json.loads(err)["message"]


def test_sweep_rejects_single_step(tmp_path, capsys):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity",
        "start": 1e-3, "stop": 1e-2, "steps": 1,
        "wrn": MAN_SPEC,
    })
    code, _, _ = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_INPUT


@pytest.mark.parametrize("steps", [HUGE_INT, MAX_SWEEP_STEPS + 1], ids=["10**400", "limit+1"])
def test_sweep_rejects_too_many_steps(tmp_path, capsys, steps):
    spec = write_json(tmp_path / "sweep.json", {
        "variable": "targetCapacity",
        "start": 1e-3, "stop": 1e-2, "steps": steps,
        "wrn": MAN_SPEC,
    })
    code, _, err = run(capsys, "sweep", "--spec", spec)
    assert code == EXIT_INPUT
    error = json.loads(err)
    assert error["error"] == "input"
    assert error["message"].startswith(f"steps must be an integer from 2 to {MAX_SWEEP_STEPS}")


def test_sweep_takes_steps_up_to_the_limit():
    for scale in ("linear", "log"):
        xs = grid(1e-3, 1e-2, MAX_SWEEP_STEPS, scale)
        assert len(xs) == MAX_SWEEP_STEPS
        assert (xs[0], xs[-1]) == (1e-3, 1e-2)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--count", "10")
    assert code == EXIT_OK
    assert "PASS" in out
    assert "FAIL" not in out


def _off_by(family, rel):
    """``bounds.compounds`` with each number it returns for ``family`` off by a factor 1 + rel."""
    def compounds(fam, directions):
        reduced = bounds.compounds(fam, directions)
        if fam != family:
            return reduced
        return [r * (1.0 + rel) if fam == "ad" else tuple(x * (1.0 + rel) for x in r) for r in reduced]
    return compounds


def test_selftest_batteries_run_the_compound_that_ships(capsys, monkeypatch):
    assert selfcheck.compounds is bounds.compounds
    calls = []

    def counting(fam, directions):
        calls.append((fam, len(directions)))
        return bounds.compounds(fam, directions)

    monkeypatch.setattr(selfcheck, "compounds", counting)
    code, _, _ = run(capsys, "selftest", "--seed", "7", "--count", "10")
    assert code == EXIT_OK
    assert calls == [("ad", 10), ("tl", 10)]  # each battery's chains in one kernel call


@pytest.mark.parametrize("family,battery", [("ad", "ad-compound-vs-kraus"), ("tl", "tl-compound-vs-gaussian")])
def test_selftest_fails_on_a_compound_off_by_one_part_in_a_billion(capsys, monkeypatch, family, battery):
    monkeypatch.setattr(selfcheck, "compounds", _off_by(family, 1e-9))
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--count", "50")
    assert code == EXIT_NUMERIC
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [f"FAIL {battery}"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_selftest_refuses_a_count_below_one(capsys, count):
    code, out, err = run(capsys, "selftest", "--count", count)
    assert code == EXIT_INPUT and out == ""
    assert json.loads(err) == {"error": "input", "message": f"--count must be at least 1, got {count}"}


def test_selftest_runs_without_numpy():
    # An import of numpy fails in this interpreter, so any use of it would end
    # selftest with an ImportError instead of exit 0.
    probe = ("import sys; sys.modules['numpy'] = None; from qnetcap.cli import main; "
             "sys.exit(main(['selftest', '--seed', '0', '--count', '5']))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 6  # every battery, the two certificate ones included


# The process entry: ``python -m qnetcap.cli`` ends through ``cli.run``.

def test_run_flushes_runs_the_exit_handlers_and_ends_with_mains_code(monkeypatch):
    steps = []

    class Exited(Exception):
        pass

    def exit_(code):
        steps.append(("exit", code))
        raise Exited

    monkeypatch.setattr(cli, "main", lambda: steps.append("main") or EXIT_NOT_ATTAINABLE)
    monkeypatch.setattr(sys.stdout, "flush", lambda: steps.append("flush stdout"))
    monkeypatch.setattr(sys.stderr, "flush", lambda: steps.append("flush stderr"))
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: steps.append("atexit"))
    monkeypatch.setattr(cli.os, "_exit", exit_)
    with pytest.raises(Exited):
        cli.run()
    assert steps == ["main", "flush stdout", "atexit", "flush stdout", "flush stderr", ("exit", EXIT_NOT_ATTAINABLE)]


def test_what_an_exit_handler_prints_to_a_buffered_stdout_is_written(python):
    proc = python("-c", "import atexit, runpy, sys; atexit.register(print, 'bye'); "
                  "sys.argv = ['qnetcap', 'selftest', '--count', '1']; runpy.run_module('qnetcap.cli', run_name='__main__')",
                  env={"PYTHONUNBUFFERED": None}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.count("PASS") == 6 and proc.stdout.endswith("\nbye\n")


def test_generate_to_a_pipe_writes_the_whole_network(python):
    # More than stdout's 8 KiB buffer, so the tail is written only by run's flush.
    proc = python("-m", "qnetcap.cli", "generate", "--cell", "manhattan8", "--radius", "5", "--d", "10",
                  env={"PYTHONUNBUFFERED": None}, capture_output=True)
    expected = "".join(network.network_json_chunks(generate(WrnSpec("manhattan8", 5, 10.0, "tl")))) + "\n"
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert len(expected) > 8192 and proc.stdout == expected.encode("utf-8")


def test_exit_handlers_registered_before_the_entry_run(tmp_path, python):
    marker, out = tmp_path / "marker", tmp_path / "net.json"
    argv = ["qnetcap", "generate", "--cell", "manhattan8", "--radius", "2", "--d", "10", "--out", str(out)]
    proc = python("-c", "import atexit, pathlib, runpy, sys; "
                  f"atexit.register(pathlib.Path({str(marker)!r}).write_text, 'ran'); "
                  f"sys.argv = {argv!r}; runpy.run_module('qnetcap.cli', run_name='__main__')",
                  capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
    assert marker.read_text() == "ran" and out.exists()


@pytest.mark.parametrize("command", ["generate", "validate", "analyze", "threshold", "sweep", "selftest"])
def test_no_subcommand_imports_the_cli_module_a_second_time(tmp_path, python, command):
    # Run as ``python -m qnetcap.cli``, the front end is ``__main__``: a package module that
    # imported ``qnetcap.cli`` would compile and run it again as a module of its own.
    loaded = tmp_path / "loaded"
    argv = ["qnetcap", *_subcommand_argv(tmp_path, command)]
    proc = python("-c", "import atexit, json, pathlib, runpy, sys; "
                  f"atexit.register(lambda: pathlib.Path({str(loaded)!r}).write_text("
                  "json.dumps(sorted(m for m in sys.modules if m.startswith('qnetcap'))))); "
                  f"sys.argv = {argv!r}; runpy.run_module('qnetcap.cli', run_name='__main__', alter_sys=True)",
                  capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    modules = json.loads(loaded.read_text())
    assert "qnetcap.cli" not in modules and ("qnetcap.sweep" in modules) == (command == "sweep")


def assert_stdout_failed(proc, errno_text):
    # One error line and nothing else: the pending bytes are not flushed again.
    assert proc.returncode == EXIT_INPUT
    assert json.loads(proc.stderr) == {"error": "input", "message": f"cannot write standard output: {errno_text}"}
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["validate", "--in", "NET"],
    ["generate", "--cell", "manhattan8", "--radius", "5", "--d", "10"],
    ["selftest", "--count", "1"],
    ["--help"],
    ["analyze", "--help"],
], ids=["validate", "generate", "selftest", "help", "subcommand-help"])
def test_a_full_stdout_is_an_input_error(tmp_path, python, argv, unbuffered):
    net = tmp_path / "net.json"
    net.write_text("".join(network.network_json_chunks(generate(WrnSpec("manhattan8", 2, 10.0, "tl")))))
    with open("/dev/full", "w") as full:
        proc = python("-m", "qnetcap.cli", *[str(net) if arg == "NET" else arg for arg in argv],
                      env={"PYTHONUNBUFFERED": unbuffered}, stdout=full, stderr=subprocess.PIPE, text=True)
    assert_stdout_failed(proc, "[Errno 28] No space left on device")


def test_a_closed_pipe_on_stdout_is_an_input_error(python):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python("-m", "qnetcap.cli", "generate", "--cell", "manhattan8", "--radius", "5", "--d", "10",
                      stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert_stdout_failed(proc, "[Errno 32] Broken pipe")


# Fuzz: valid documents for every subcommand, each with up to two documented
# keys (nested ones included) set to a malformed value or removed. BAD holds
# no integer above 1, so every sweep keeps its 2 or 3 points; network
# documents also get an integer too large for a float.
BAD = [None, True, -1, 0, 1e308, -1e308, 1e-310, 5e-324, math.nan, math.inf, -math.inf,
       "x", "nan", "1e999", "2", [], [1], {}, {"kind": "ad"}]
NETWORK_BAD = [*BAD, HUGE_INT]
MISSING = object()

TL_DEVICE = {"kind": "tl", "tau": 0.9, "nbar": 0.01}
AD_DEVICE = {"kind": "ad", "p": 0.05}
QKD_FIELDS = ["preset", *QkdSetup._fields]
LATTICES = [
    MAN_SPEC,
    {**TRI_SPEC, "family": "ad", "gamma": 0.02, "recv": AD_DEVICE, "send": AD_DEVICE},
    {**MAN_SPEC, "nbar_B": 0.002, "recv": TL_DEVICE, "send": {"kind": "pl", "eta": 0.95}},
    {**MAN_SPEC, "qkd_setup": {"preset": "table1-homodyne-tlo", "wavelength": 1.55e-6, "p_lo": 0.1}},
    {**MAN_SPEC, "qkd_setup": "table1-heterodyne-llo"},
]
LATTICE_PATHS = [(key,) for key in ("cell", "radius", "edge_length_km", "family", "gamma", "nbar_B",
                                    "recv", "send", "qkd_setup")]
LATTICE_PATHS += [(side, key) for side in ("recv", "send") for key in ("kind", "p", "tau", "nbar", "eta")]
LATTICE_PATHS += [("qkd_setup", key) for key in QKD_FIELDS]
SWEEPS = [
    {"variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 2, "scale": "log",
     "wrn": MAN_SPEC},
    {"variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 3, "scale": "log",
     "param": "internalLoss", "wrn": LATTICES[1]},
    {**EDGE_SWEEP, "steps": 3},
    {**EDGE_SWEEP, "wrn": LATTICES[3], "qkd_setup": {"scheme": "tlo"}},
    {"variable": "internalLoss", "start": 0.01, "stop": 0.1, "steps": 2, "target": 1e-2,
     "wrn": TRI_SPEC},
    {"variable": "receiverNoise", "start": 1e-3, "stop": 1e-2, "steps": 2, "target": 1e-2,
     "wrn": LATTICES[2]},
    {"variable": "targetCapacity", "start": 1e-3, "stop": 1e-2, "steps": 2, "scale": "log",
     "param": "receiverNoise", "wrn": LATTICES[4]},
]
SWEEP_PATHS = [(key,) for key in ("variable", "start", "stop", "steps", "scale", "wrn", "target",
                                  "param", "qkd_setup")]
SWEEP_PATHS += [("wrn", *path) for path in LATTICE_PATHS] + [("qkd_setup", key) for key in QKD_FIELDS]
NETWORKS = [
    {"family": "tl",
     "nodes": [{"id": "a", "role": "user"}, {"id": "b", "recv": TL_DEVICE, "send": TL_DEVICE},
               {"id": "c", "role": "user", "recv": {"kind": "pl", "eta": 0.8}}],
     "edges": [{"a": "a", "b": "b", "fibre": {"length_km": 5.0, "gamma": 0.02, "nbar_B": 0.002}},
               {"a": "b", "b": "c", "channel": {"kind": "tl", "tau": 0.5, "nbar": 0.001}},
               {"a": "a", "b": "c", "channel": {"kind": "pl", "eta": 0.1}}],
     "users": ["a", "c"]},
    {"nodes": [{"id": "a", "send": AD_DEVICE}, {"id": "b", "recv": AD_DEVICE}, {"id": "c"}],
     "edges": [{"a": "a", "b": "b", "channel": {"kind": "ad", "p": 0.3}},
               {"a": "b", "b": "c", "fibre": {"length_km": 5.0}},
               {"a": "a", "b": "c", "channel": {"kind": "id"}}],
     "users": ["a", "c"]},
]
NETWORK_PATHS = [(key,) for key in ("nodes", "edges", "users", "family")] + [("users", 0)]
NETWORK_PATHS += [("nodes", i, key) for i in range(3) for key in ("id", "recv", "send", "role")]
NETWORK_PATHS += [("nodes", 1, side, key) for side in ("recv", "send")
                  for key in ("kind", "p", "tau", "nbar")]
NETWORK_PATHS += [("edges", i, key) for i in range(3) for key in ("a", "b", "channel", "fibre")]
NETWORK_PATHS += [("edges", 0, "fibre", key) for key in ("length_km", "gamma", "nbar_B")]
NETWORK_PATHS += [("edges", 1, "fibre", "length_km")]
NETWORK_PATHS += [("edges", i, "channel", key) for i in range(3)
                  for key in ("kind", "p", "tau", "nbar", "eta")]


def with_drawn_lengths(bases, *nest):
    """A base as it is, or with the edge_length_km of its lattice (under ``nest``) drawn up to
    1e5 km and its gamma in [1e-3, 2], so that fibres which transmit nothing reach the solver."""

    def place(base, length, gamma):
        doc = copy.deepcopy(base)
        lattice = doc
        for key in nest:
            lattice = lattice[key]
        lattice["edge_length_km"] = length
        lattice["gamma"] = gamma
        return doc

    return st.one_of(st.sampled_from(bases),
                     st.builds(place, st.sampled_from(bases), st.floats(1e-3, 1e5), st.floats(1e-3, 2.0)))


def with_fibre_lengths(bases):
    """A network as it is, or with the length_km of its one fibre drawn, lengths that transmit nothing included."""

    def place(base, length):
        doc = copy.deepcopy(base)
        next(edge for edge in doc["edges"] if "fibre" in edge)["fibre"]["length_km"] = length
        return doc

    lengths = st.one_of(st.floats(1e-3, 1e5), st.sampled_from([2e4, 1e300, math.inf]))
    return st.one_of(st.sampled_from(bases), st.builds(place, st.sampled_from(bases), lengths))


def spoiled(bases, paths, bad=BAD):
    """A deep copy of a drawn base with up to two paths set to a ``bad`` value or removed."""

    def apply(base, faults):
        doc = copy.deepcopy(base)
        for path, value in faults:
            # An earlier fault may have removed or replaced a parent on the path.
            with contextlib.suppress(KeyError, IndexError, TypeError):
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                if value is MISSING:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
        return doc

    faults = st.lists(st.tuples(st.sampled_from(paths), st.sampled_from([*bad, MISSING])), max_size=2)
    return st.builds(apply, bases, faults)


TARGETS = st.sampled_from(["1e-2", "1e-3", "0", "-1", "nan", "inf", "1e308", "5e-324"])
PARAMS = st.sampled_from(["edge-length", "internal-loss", "receiver-noise"])


@settings(max_examples=600, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(
    st.tuples(st.just("threshold"), spoiled(with_drawn_lengths(LATTICES), LATTICE_PATHS),
              st.tuples(st.just("--target"), TARGETS, st.just("--param"), PARAMS)),
    st.tuples(st.just("sweep"), spoiled(with_drawn_lengths(SWEEPS, "wrn"), SWEEP_PATHS), st.just(())),
    st.tuples(st.sampled_from(["validate", "analyze"]),
              spoiled(with_fibre_lengths(NETWORKS), NETWORK_PATHS, NETWORK_BAD), st.just(())),
))
@example(("threshold", {**MAN_SPEC, "edge_length_km": 20000.0},
          ("--target", "1e-3", "--param", "receiver-noise")))
@example(("threshold", LATTICES[4], ("--target", "1e-3", "--param", "receiver-noise")))
@example(("validate", {**NETWORKS[1], "edges": [{"a": "b", "b": "c", "fibre": {"length_km": HUGE_INT}}]}, ()))
@example(("analyze", {**NETWORKS[0], "nodes": [{"id": "b", "send": {"kind": "tl", "tau": HUGE_INT}}]}, ()))
@example(("sweep", {**SWEEPS[0], "steps": HUGE_INT}, ()))
@example(("analyze", {**NETWORKS[0], "edges": [{"a": "a", "b": "c", "fibre": {"length_km": 2e4}}]}, ()))
@example(("analyze", {**NETWORKS[0], "edges": [{"a": "a", "b": "c", "fibre": {"length_km": 0, "gamma": 1e999}}]}, ()))
def test_every_subcommand_maps_arbitrary_json_to_an_exit_code(tmp_path, case):
    command, data, extra = case
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    flag = "--in" if command in ("validate", "analyze") else "--spec"
    code = main([command, flag, str(path), *extra, "--out", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VALIDATION, EXIT_NOT_ATTAINABLE, EXIT_NUMERIC)


# Texts of the fuzz networks as other writers lay them out: indents, other
# separators, the top-level keys in any order (edges first included), a key
# given twice, and empty arrays.
LAYOUTS = [{}, {"indent": 0}, {"indent": 2}, {"separators": (",", ":")}, {"separators": (" ,\n\t", " : ")}]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spoiled(with_fibre_lengths(NETWORKS), NETWORK_PATHS, NETWORK_BAD), st.sampled_from(LAYOUTS),
       st.sampled_from(["as is", "permuted", "duplicated", "empty nodes", "empty edges"]),
       st.randoms(use_true_random=False))
@example(NETWORKS[0], {}, "duplicated", random.Random(0))
def test_read_network_reads_any_layout_as_json_loads_does(doc, layout, variant, rng):
    if variant == "permuted":
        doc = dict(rng.sample(list(doc.items()), len(doc)))
    elif variant.startswith("empty"):
        doc = {**doc, variant.split()[1]: []}
    text = json.dumps(doc, **layout)
    if variant == "duplicated":  # json.loads keeps the last value of a key
        key = rng.choice(["nodes", "edges", "users", "family"])
        text = f'{{"{key}": ["x"], {text[1:]}' if doc else f'{{"{key}": ["x"]}}'
    assert network.load_network(text) == reader._load_json(text)

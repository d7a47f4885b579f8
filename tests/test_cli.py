import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnetcap.cli import (
    EXIT_INPUT,
    EXIT_NOT_ATTAINABLE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


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


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "generate", "--cell", "manhattan8", "--radius", "3",
                         "--d", "1.5", "--out", str(path))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_small_radius(capsys):
    code, _, err = run(capsys, "generate", "--cell", "triangular6", "--radius", "1", "--d", "1.0")
    assert code == EXIT_INPUT
    assert "radius" in json.loads(err)["message"]


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


def test_threshold_rejects_unknown_spec_key(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", {**MAN_SPEC, "colour": "blue"})
    code, _, err = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e-2", "--param", "edge-length")
    assert code == EXIT_INPUT
    assert "colour" in json.loads(err)["message"]


MALFORMED_LATTICE = [
    ("radius", "x"),
    ("radius", None),
    ("edge_length_km", "ten"),
    ("gamma", [1]),
    ("cell", [1]),
    ("qkd_setup", {"wavelength": "zz"}),
]
MALFORMED_SWEEP = [
    ("stop", {"stop": "x"}),
    ("target", {"target": "abc"}),
    ("param", {"variable": "targetCapacity", "param": [1]}),
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


def test_numeric_strings_in_spec_still_parse(tmp_path, capsys):
    argv = ["--target", "1e-2", "--param", "edge-length"]
    plain = write_json(tmp_path / "plain.json", MAN_SPEC)
    quoted = write_json(tmp_path / "quoted.json", {**MAN_SPEC, "radius": "2", "edge_length_km": "10"})
    assert run(capsys, "threshold", "--spec", quoted, *argv) == run(capsys, "threshold", "--spec", plain, *argv)


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, qnetcap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_threshold_family_mismatch(tmp_path, capsys):
    spec = write_json(tmp_path / "wrn.json", MAN_SPEC)
    code, _, err = run(capsys, "threshold", "--spec", spec,
                       "--target", "1e-3", "--param", "internal-loss")
    assert code == EXIT_INPUT


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


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--count", "10")
    assert code == EXIT_OK
    assert "PASS" in out
    assert "FAIL" not in out

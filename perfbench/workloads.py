"""The three benchmark workloads: their CLI call lists and input files.

A workload is a list of call groups. Calls inside a group depend on each
other (generate -> validate -> analyze on one lattice) and keep their order;
the seed shuffles the order of the groups in every pass. Every call writes
its output with ``--out`` into the pass directory, so outputs of all passes
can be checked after the timed passes end.

``lattice-pipeline`` and ``solver-sweep`` run a fixed corpus, so their
outputs are compared with the stored reference. ``hetero-analyze`` runs on
networks built here from the seed; the program receives only the files, and
``checks.Oracle`` recomputes the expected answers independently.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``qnetcap <argv>``; ``out`` is the file it writes."""

    id: str
    kind: str
    argv: tuple[str, ...]
    out: Path


# The ROADMAP's fixed lattices at the two larger radii, each in the family
# the CLI defaults to for its cell.
LATTICES = (("manhattan8", 10), ("manhattan8", 20), ("triangular6", 10), ("triangular6", 20))
LATTICE_EDGE_KM = 10.0

# The README lattice spec, and its damping-family counterpart for the
# parameters that only the triangular (amplitude-damping) cell supports.
README_WRN = {"cell": "manhattan8", "radius": 2, "edge_length_km": 10.0}
README_WRN_AD = {"cell": "triangular6", "radius": 2, "edge_length_km": 10.0}

THRESHOLDS = (
    ("edge-length", README_WRN),
    ("internal-loss", README_WRN_AD),
    ("receiver-noise", README_WRN),
)

SWEEPS = {
    # The README targetCapacity example, verbatim.
    "targetCapacity-tl": {
        "variable": "targetCapacity",
        "start": 1e-4, "stop": 1e-1, "steps": 40, "scale": "log",
        "wrn": README_WRN,
    },
    "targetCapacity-ad": {
        "variable": "targetCapacity",
        "start": 1e-4, "stop": 1e-1, "steps": 40, "scale": "log",
        "wrn": README_WRN_AD,
    },
    "edgeLength-tl": {
        "variable": "edgeLength", "start": 1.0, "stop": 100.0, "steps": 40, "target": 1e-2,
        "wrn": {**README_WRN, "recv": {"kind": "tl", "tau": 0.8, "nbar": 0.0}},
    },
    "edgeLength-ad": {
        "variable": "edgeLength", "start": 1.0, "stop": 100.0, "steps": 40, "target": 1e-2,
        "wrn": README_WRN_AD,
    },
    "internalLoss-ad": {
        "variable": "internalLoss", "start": 0.0, "stop": 0.5, "steps": 40, "target": 1e-2,
        "wrn": README_WRN_AD,
    },
    "receiverNoise-tl": {
        "variable": "receiverNoise", "start": 0.0, "stop": 0.1, "steps": 40, "target": 1e-2,
        "wrn": README_WRN,
    },
}

# hetero-analyze inputs: (file stem, cell, radius, family).
HETERO_LATTICES = (("manhattan8-r20", "manhattan8", 20, "tl"), ("triangular6-r10", "triangular6", 10, "ad"))
CHAIN_HOPS = 2000
FIBRE_KM = (5.0, 25.0)
GAMMA = 0.02
NBAR_B = 0.002
# Per-node device ranges: thermal (tau, nbar) and damping p.
TL_TAU = (0.85, 1.0)
TL_NBAR = (0.0, 0.005)
AD_P = (0.0, 0.1)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    # json.dumps in one shot uses the C encoder; json.dump with an indent
    # does not, and would make set-up several times slower.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


class Workload:
    """Base: ``setup`` writes the inputs, ``groups`` lists one pass of calls."""

    name = ""
    # Seconds of one pass at seed, scaled to the reference machine speed
    # (see run.PROBE_REF_S). It fixes the passes per run, so that every run
    # of every commit times the same number of calls (the tail percentile
    # depends on it).
    nominal_pass_s = 1.0
    calls_per_pass = 1

    def setup(self, inputs: Path, seed: int) -> dict:
        """Write input files under ``inputs``; return {file name: sha256}."""
        return {}

    def groups(self, inputs: Path, out: Path) -> list[list[Call]]:
        raise NotImplementedError

    def ordered(self, inputs: Path, out: Path, rng: random.Random) -> list[Call]:
        groups = self.groups(inputs, out)
        rng.shuffle(groups)
        return [call for group in groups for call in group]


class LatticePipeline(Workload):
    name = "lattice-pipeline"
    nominal_pass_s = 14.1
    calls_per_pass = 3 * len(LATTICES)

    def groups(self, inputs, out):
        groups = []
        for cell, radius in LATTICES:
            stem = f"{cell}-r{radius}"
            net = out / f"net-{stem}.json"
            groups.append([
                Call(f"generate:{stem}", "generate",
                     ("generate", "--cell", cell, "--radius", str(radius),
                      "--d", repr(LATTICE_EDGE_KM), "--out", str(net)), net),
                Call(f"validate:{stem}", "validate",
                     ("validate", "--in", str(net), "--out", str(out / f"val-{stem}.json")),
                     out / f"val-{stem}.json"),
                Call(f"analyze:{stem}", "analyze",
                     ("analyze", "--in", str(net), "--out", str(out / f"ana-{stem}.json")),
                     out / f"ana-{stem}.json"),
            ])
        return groups


class SolverSweep(Workload):
    name = "solver-sweep"
    nominal_pass_s = 9.0
    calls_per_pass = len(THRESHOLDS) + len(SWEEPS)

    def setup(self, inputs, seed):
        files = {}
        for param, wrn in THRESHOLDS:
            path = inputs / f"wrn-{param}.json"
            _write_json(path, wrn)
            files[path.name] = sha256_file(path)
        for name, spec in SWEEPS.items():
            path = inputs / f"sweep-{name}.json"
            _write_json(path, spec)
            files[path.name] = sha256_file(path)
        return files

    def groups(self, inputs, out):
        groups = []
        for param, _ in THRESHOLDS:
            result = out / f"thr-{param}.json"
            groups.append([Call(
                f"threshold:{param}", "threshold",
                ("threshold", "--spec", str(inputs / f"wrn-{param}.json"),
                 "--target", "1e-2", "--param", param, "--out", str(result)),
                result,
            )])
        for name in SWEEPS:
            result = out / f"sweep-{name}.csv"
            groups.append([Call(
                f"sweep:{name}", "sweep",
                ("sweep", "--spec", str(inputs / f"sweep-{name}.json"), "--out", str(result)),
                result,
            )])
        return groups


def lattice_coords(cell: str, radius: int):
    """Node coordinates and half-direction edge pairs of a lattice patch.

    The same geometry as ``qnetcap generate``: triangular cells in axial
    coordinates, manhattan8 as a square grid with both diagonals, and the
    end users at (-2, 0) and (2, 0).
    """
    rings = 2 * radius
    span = range(-rings, rings + 1)
    if cell == "triangular6":
        coords = [(q, r) for q in span for r in span if (abs(q) + abs(r) + abs(q + r)) // 2 <= rings]
        dirs = ((1, 0), (0, 1), (-1, 1))
    else:
        coords = [(x, y) for x in span for y in span]
        dirs = ((1, 0), (0, 1), (1, 1), (1, -1))
    member = set(coords)
    pairs = []
    for x, y in coords:
        for dx, dy in dirs:
            if (x + dx, y + dy) in member:
                pairs.append(((x, y), (x + dx, y + dy)))
    return coords, pairs


def _node_id(coord) -> str:
    return f"n{coord[0]}_{coord[1]}"


def _device(rng: random.Random, fam: str) -> dict:
    if fam == "ad":
        return {"kind": "ad", "p": rng.uniform(*AD_P)}
    return {"kind": "tl", "tau": rng.uniform(*TL_TAU), "nbar": rng.uniform(*TL_NBAR)}


def _fibre(rng: random.Random) -> dict:
    return {"length_km": rng.uniform(*FIBRE_KM), "gamma": GAMMA, "nbar_B": NBAR_B}


def hetero_lattice(cell: str, radius: int, fam: str, rng: random.Random) -> dict:
    """Lattice network JSON with a seeded fibre per edge and devices per node."""
    coords, pairs = lattice_coords(cell, radius)
    users = (_node_id((-2, 0)), _node_id((2, 0)))
    nodes = []
    for coord in coords:
        node_id = _node_id(coord)
        nodes.append({
            "id": node_id,
            "recv": _device(rng, fam),
            "send": _device(rng, fam),
            "role": "user" if node_id in users else "repeater",
        })
    edges = [{"a": _node_id(a), "b": _node_id(b), "fibre": _fibre(rng)} for a, b in pairs]
    return {"nodes": nodes, "edges": edges, "users": list(users), "family": fam}


def hetero_chain(hops: int, rng: random.Random) -> dict:
    """Thermal-loss chain of ``hops`` seeded fibres between its two end nodes."""
    ids = [f"c{i}" for i in range(hops + 1)]
    nodes = [{"id": i, "role": "user" if i in (ids[0], ids[-1]) else "repeater"} for i in ids]
    edges = [{"a": a, "b": b, "fibre": _fibre(rng)} for a, b in zip(ids, ids[1:])]
    return {"nodes": nodes, "edges": edges, "users": [ids[0], ids[-1]], "family": "tl"}


def hetero_networks(seed: int) -> dict[str, dict]:
    """All hetero-analyze inputs for one seed, keyed by file stem."""
    rng = random.Random(seed)
    nets = {stem: hetero_lattice(cell, radius, fam, rng) for stem, cell, radius, fam in HETERO_LATTICES}
    nets[f"chain{CHAIN_HOPS}"] = hetero_chain(CHAIN_HOPS, rng)
    return nets


class HeteroAnalyze(Workload):
    name = "hetero-analyze"
    nominal_pass_s = 6.15
    calls_per_pass = len(HETERO_LATTICES) + 1

    def __init__(self):
        self.networks: dict[str, dict] = {}

    def setup(self, inputs, seed):
        self.networks = hetero_networks(seed)
        files = {}
        for stem, data in self.networks.items():
            path = inputs / f"net-{stem}.json"
            _write_json(path, data)
            files[path.name] = sha256_file(path)
        return files

    def groups(self, inputs, out):
        groups = []
        for stem in self.networks:
            result = out / f"ana-{stem}.json"
            groups.append([Call(
                f"analyze:{stem}", "analyze",
                ("analyze", "--in", str(inputs / f"net-{stem}.json"), "--out", str(result)),
                result,
            )])
        return groups


WORKLOADS = {w.name: w for w in (LatticePipeline, HeteroAnalyze, SolverSweep)}

"""Correctness checks on CLI outputs: stored references, invariants, oracle.

Every call is judged after the timed passes. A call fails on an unexpected
exit code, a traceback, an output outside the reference tolerance, or a
broken invariant. Calls that failed when the reference was recorded carry
their exit code and message instead of an output; such a call that fails
the same way again is a *known* failure: it still counts as failed, but it
does not make the run incorrect. If it starts to succeed, its output is held
to the invariants only.

The reference is a digest of each output, not the output itself: small
outputs are kept whole, large sets (lattice node ids, min-cut sides) as a
count plus a sha256. Numbers are compared within a relative tolerance per
output kind, structure (keys, sets, CSV header and columns) exactly.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path

from workloads import sha256_file

# Relative tolerance on numbers, per output kind. Capacities come from
# closed forms or a 1e-10-tolerance optimizer; thresholds from a bisection
# that stops at relative width 1e-9 in the parameter.
RTOL = {"generate": 1e-12, "validate": 0.0, "analyze": 1e-9, "threshold": 1e-7, "sweep": 1e-7}
ATOL = 1e-12
# Slack on order relations between bounds (lower <= upper, flow <= cut).
ORDER_TOL = 1e-9

XI_COLUMNS = ("d_max", "p_int_max", "nbar_r_max")


def _sha(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def _set_digest(items) -> dict:
    items = sorted(items)
    return {"n": len(items), "sha256": _sha(items)}


def _num(x):
    """CSV cell to float, with NaN as None so digests stay valid JSON."""
    v = float(x)
    return None if math.isnan(v) else v


def read_csv(path: Path) -> tuple[list[str], list[str], list[list]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",") if body else []
    rows = [[_num(c) for c in ln.split(",")] for ln in body[1:]]
    return comments, header, rows


def digest(kind: str, path: Path):
    """The part of an output that the reference stores."""
    if kind == "sweep":
        comments, header, rows = read_csv(path)
        return {"comments": comments, "header": header, "rows": rows}
    data = json.loads(path.read_text(encoding="utf-8"))
    if kind == "generate":
        fibres = {json.dumps(e.get("fibre"), sort_keys=True) for e in data["edges"]}
        devices = {
            json.dumps([n.get("recv"), n.get("send")], sort_keys=True) for n in data["nodes"]
        }
        return {
            "keys": sorted(data),
            "nodes": _set_digest(f"{n['id']}:{n['role']}" for n in data["nodes"]),
            "edges": _set_digest(f"{e['a']}|{e['b']}" for e in data["edges"]),
            "fibres": [json.loads(f) for f in sorted(fibres)],
            "devices": [json.loads(d) for d in sorted(devices)],
            "users": data["users"],
            "family": data["family"],
        }
    if kind == "analyze":
        cut = data["mincut"]
        return {
            "keys": sorted(data),
            "users": data["users"],
            "report": data["report"],
            "mincut": {
                "value": cut["value"],
                "A": _set_digest(cut["A"]),
                "B": _set_digest(cut["B"]),
                "edges": _set_digest(f"{a}|{b}" for a, b in cut["edges"]),
            },
        }
    return data


def compare(ref, got, rtol: float, where: str = "") -> str | None:
    """First difference between a reference digest and an output digest."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{where or 'top'}: keys differ"
        for key in ref:
            diff = compare(ref[key], got[key], rtol, f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: length differs"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, rtol, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - ref) <= rtol * max(abs(ref), abs(got)) + ATOL:
            return None
        return f"{where}: {got!r} vs reference {ref!r}"
    if ref != got or type(ref) is not type(got):
        return f"{where}: {got!r} vs reference {ref!r}"
    return None


def _le(a: float, b: float) -> bool:
    return a <= b + ORDER_TOL * max(1.0, abs(b))


def invariants(kind: str, path: Path) -> str | None:
    """Order relations and structure every output of a kind must satisfy."""
    if kind == "sweep":
        comments, header, rows = read_csv(path)
        if not comments or comments[0] != "# qnetcap-sweep/1" or len(header) < 3:
            return "sweep header malformed"
        for i, row in enumerate(rows):
            if len(row) != len(header):
                return f"sweep row {i} has {len(row)} columns, header {len(header)}"
            cell = dict(zip(header, row))
            for name in XI_COLUMNS:
                lo, up = cell.get(f"{name}_lower"), cell.get(f"{name}_upper")
                if lo is not None and up is not None and not _le(lo, up):
                    return f"sweep row {i}: {name}_lower {lo} > {name}_upper {up}"
            lo, up = cell.get("rho_min_lower"), cell.get("rho_min_upper")
            if lo is not None and up is not None and not _le(up, lo):
                return f"sweep row {i}: rho_min_upper {up} > rho_min_lower {lo}"
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if kind == "generate":
        ids = {n["id"] for n in data["nodes"]}
        users = data.get("users", [])
        if len(users) != 2 or users[0] == users[1] or not set(users) <= ids or not data["edges"]:
            return "generated network lacks two distinct end users or edges"
        return None
    if kind == "validate":
        return None if isinstance(data.get("violations"), list) else "validate output lacks violations"
    if kind == "threshold":
        for side in ("bulk", "user"):
            lo, hi = data[side]["bracket"]
            if not (0.0 < lo and math.isfinite(hi) and _le(lo, hi)):
                return f"threshold {side} bracket {lo}, {hi} out of order"
        if "rho_min" in data:
            lo, hi = data["rho_min"]["bracket"]
            if not _le(lo, hi):
                return f"rho_min bracket {lo}, {hi} out of order"
        return None
    if kind == "analyze":
        report = data["report"]
        for name in ("single_path", "flooding", "min_neighbourhood"):
            lo, up = report[name]["lower"], report[name]["upper"]
            if not (0.0 <= lo and _le(lo, up)):
                return f"{name}: lower {lo} > upper {up}"
        for sel in ("lower", "upper"):
            single = report["single_path"][sel]
            flood = report["flooding"][sel]
            nbhd = report["min_neighbourhood"][sel]
            if not _le(single, flood):
                return f"{sel}: single-path {single} > flooding {flood}"
            if not _le(flood, nbhd):
                return f"{sel}: flooding {flood} > min-neighbourhood {nbhd}"
        cut = data["mincut"]
        if abs(cut["value"] - report["flooding"]["upper"]) > ORDER_TOL * max(1.0, cut["value"]):
            return "min-cut value differs from the flooding upper bound"
        a_side, b_side = set(cut["A"]), set(cut["B"])
        alpha, beta = data["users"]
        if a_side & b_side or alpha not in a_side or beta not in b_side:
            return "min-cut sides overlap or do not separate the users"
        for a, b in cut["edges"]:
            if (a in a_side) == (b in a_side):
                return f"min-cut edge {a}-{b} does not cross the cut"
        return None
    return None


# --- independent oracle for the seeded hetero-analyze networks -------------


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _g(x: float) -> float:
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def ad_rci(p: float) -> float:
    """max_u H2(u) - H2(p u), by bisection on the derivative (strictly concave)."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        u = 0.5 * (lo + hi)
        if u in (lo, hi):
            break
        slope = math.log2((1.0 - u) / u) - p * math.log2((1.0 - p * u) / (p * u))
        if slope > 0.0:
            lo = u
        else:
            hi = u
    u = 0.5 * (lo + hi)
    return max(0.0, _h2(u) - _h2(p * u))


def ad_squashed(p: float) -> float:
    return max(0.0, _h2(0.5 - p / 4.0) - _h2(p / 4.0))


def tl_bounds(eta: float, nbar: float) -> tuple[float, float]:
    """(reverse coherent information, relative entropy of entanglement)."""
    if nbar == 0.0:
        exact = -math.log2(1.0 - eta)
        return exact, exact
    rci = -math.log2(1.0 - eta) - _g(nbar / (1.0 - eta))
    ree = 0.0 if nbar >= eta else max(0.0, rci - nbar / (1.0 - eta) * math.log2(eta))
    return max(0.0, rci), ree


def _device(node: dict, side: str, fam: str):
    ch = node.get(side)
    if fam == "ad":
        return ch["p"] if ch else 0.0
    return (ch["tau"], ch["nbar"]) if ch else (1.0, 0.0)


def _edge_bounds(edge: dict, src: dict, dst: dict, fam: str) -> tuple[float, float]:
    """Bounds for one direction of use: sender's send, fibre, receiver's recv."""
    fibre = edge["fibre"]
    eta = 10.0 ** (-fibre["gamma"] * fibre["length_km"])
    if fam == "ad":
        p = 1.0 - (1.0 - _device(src, "send", fam)) * eta * (1.0 - _device(dst, "recv", fam))
        return ad_rci(p), ad_squashed(p)
    tau_s, n_s = _device(src, "send", fam)
    tau_r, n_r = _device(dst, "recv", fam)
    # Closed form of the send -> fibre -> recv thermal-loss compound.
    return tl_bounds(tau_s * eta * tau_r, n_r + tau_r * fibre["nbar_B"] + eta * tau_r * n_s)


def _widest(adj: dict, values: list[float], alpha: str, beta: str) -> float:
    """Max-min (bottleneck) path value from alpha to beta."""
    width = {alpha: math.inf}
    done = set()
    heap = [(-math.inf, alpha)]
    while heap:
        _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == beta:
            return width[u]
        for v, i in adj[u]:
            w = min(width[u], values[i])
            if v not in done and w > width.get(v, -1.0):
                width[v] = w
                heapq.heappush(heap, (-w, v))
    return 0.0


@dataclass
class Oracle:
    """Expected capacity numbers for one network JSON, computed independently.

    Single-path and min-neighbourhood capacities are recomputed outright.
    For flooding the oracle has no flow of its own: it checks that the
    reported value equals the capacity of the reported cut under its own
    edge bounds, so the program's max-flow value is a real cut value.
    """

    users: list
    node_ids: set
    edges: list
    lower: list
    upper: list
    single: dict
    nbhd: dict

    @classmethod
    def of(cls, net: dict) -> "Oracle":
        fam = net["family"]
        nodes = {n["id"]: n for n in net["nodes"]}
        lower, upper, adj = [], [], {n: [] for n in nodes}
        for i, e in enumerate(net["edges"]):
            a, b = nodes[e["a"]], nodes[e["b"]]
            lo_ab, up_ab = _edge_bounds(e, a, b, fam)
            lo_ba, up_ba = _edge_bounds(e, b, a, fam)
            lower.append(max(lo_ab, lo_ba))
            upper.append(max(up_ab, up_ba))
            adj[e["a"]].append((e["b"], i))
            adj[e["b"]].append((e["a"], i))
        alpha, beta = net["users"]
        single, nbhd = {}, {}
        for sel, values in (("lower", lower), ("upper", upper)):
            single[sel] = _widest(adj, values, alpha, beta)
            nbhd[sel] = min(
                sum(values[i] for i, e in enumerate(net["edges"]) if u in (e["a"], e["b"]))
                for u in (alpha, beta)
            )
        edges = [(e["a"], e["b"]) for e in net["edges"]]
        return cls(net["users"], set(nodes), edges, lower, upper, single, nbhd)

    def check(self, path: Path) -> str | None:
        data = json.loads(path.read_text(encoding="utf-8"))
        rtol = RTOL["analyze"]
        if data["users"] != self.users:
            return "users differ from the input network"
        report = data["report"]
        for sel in ("lower", "upper"):
            for name, want in (("single_path", self.single[sel]), ("min_neighbourhood", self.nbhd[sel])):
                diff = compare(want, report[name][sel], rtol, f"report.{name}.{sel}")
                if diff:
                    return diff
        cut = data["mincut"]
        a_side = set(cut["A"])
        if a_side | set(cut["B"]) != self.node_ids:
            return "min-cut sides do not cover the node set"
        crossing = sorted(
            tuple(sorted(e)) for e in self.edges if (e[0] in a_side) != (e[1] in a_side)
        )
        if [tuple(e) for e in cut["edges"]] != crossing:
            return "min-cut edge list differs from the edges crossing the cut"
        for sel, values in (("lower", self.lower), ("upper", self.upper)):
            cut_value = sum(v for e, v in zip(self.edges, values) if (e[0] in a_side) != (e[1] in a_side))
            flood = report["flooding"][sel]
            if sel == "upper":
                diff = compare(cut_value, flood, rtol, "report.flooding.upper vs its cut")
                if diff:
                    return diff
            elif not _le(flood, cut_value):
                return f"flooding lower {flood} exceeds its cut value {cut_value}"
        return None


# --- verdict on one call ---------------------------------------------------


@dataclass
class Outcome:
    """What one call did: exit code, stderr text, wall time, peak RSS."""

    call_id: str
    kind: str
    out: Path
    exit: int
    stderr: str
    seconds: float
    rss_kb: int = 0


@dataclass
class Verdict:
    failed: bool
    known: bool
    reason: str | None
    byte_identical: bool


def judge(outcome: Outcome, ref: dict | None, oracle: Oracle | None) -> Verdict:
    """Classify one call against its reference entry (or oracle)."""
    ref = ref or {}
    expected_exit = ref.get("exit", 0)
    if outcome.exit != 0 or "Traceback (most recent call last)" in outcome.stderr:
        message = outcome.stderr.strip().splitlines()[-1] if outcome.stderr.strip() else ""
        known = (
            expected_exit != 0
            and outcome.exit == expected_exit
            and ref.get("message", "") in outcome.stderr
        )
        return Verdict(True, known, f"exit {outcome.exit}: {message}", False)
    try:
        broken = invariants(outcome.kind, outcome.out)
        if broken:
            return Verdict(True, False, f"invariant: {broken}", False)
        if expected_exit != 0:
            return Verdict(False, False, None, False)
        same_bytes = "sha256" in ref and sha256_file(outcome.out) == ref["sha256"]
        if oracle is not None:
            diff = oracle.check(outcome.out)
        elif "digest" in ref:
            diff = None if same_bytes else compare(
                ref["digest"], digest(outcome.kind, outcome.out), RTOL[outcome.kind]
            )
        else:
            diff = "no reference stored for this call"
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(True, False, f"unreadable output: {exc!r}", False)
    if diff:
        return Verdict(True, False, f"reference: {diff}", False)
    return Verdict(False, False, None, same_bytes)


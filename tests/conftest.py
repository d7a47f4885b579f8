import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnetcap.bounds import NBAR_CLAMP_TOL
from qnetcap.errors import DomainError


def _reference_channel(row) -> dict:
    """A device's or an explicit channel's object, spelt by its row's kind from the row's fields."""
    kind, eta, last, _, _ = row
    if kind == "ad":
        return {"kind": "ad", "p": last}
    if kind == "tl":
        return {"kind": "tl", "tau": eta, "nbar": last}
    assert kind is None
    return {"kind": "id"}


def _reference_json(graph):
    """The v1 document built as one dict per node and per edge, each edge with its own source object,
    from the rows of the graph's tables: the reference that ``network_json_chunks`` must print
    exactly as ``json.dumps`` does."""
    names = graph.names
    nodes = []
    for node_id, recv, send, role in zip(names, graph.recv, graph.send, graph.role):
        entry = {"id": node_id}
        if recv[0] is not None:
            entry["recv"] = _reference_channel(recv)
        if send[0] is not None:
            entry["send"] = _reference_channel(send)
        entry["role"] = role
        nodes.append(entry)
    sources = [("fibre", {"length_km": length_km, "gamma": gamma, "nbar_B": last})
               if kind == "fibre" else ("channel", _reference_channel((kind, eta, last, length_km, gamma)))
               for kind, eta, last, length_km, gamma in graph.classes]
    edges = [{"a": names[u], "b": names[v], sources[c][0]: {**sources[c][1]}}
             for u, v, c in zip(graph.a, graph.b, graph.cls)]
    data = {"nodes": nodes, "edges": edges}
    if graph.users is not None:
        data["users"] = list(graph.users)
    if graph.family is not None:
        data["family"] = graph.family
    return data


@pytest.fixture(scope="session")  # session scope, so hypothesis tests may take it
def reference_json():
    return _reference_json


def _compose_ad(etas):
    """Survival probability of a chain of damping channels: prod_j eta_j."""
    eta_tot = 1.0
    for eta in etas:
        if not 0.0 <= eta <= 1.0:
            raise DomainError(f"survival probability must lie in [0, 1], got {eta}")
        eta_tot *= eta
    return eta_tot


def _compose_tl(channels):
    """Reduce a chain of thermal-loss links to one (tau_tot, nbar_tot) pair.

    Transmissivities multiply. The added noise accumulates through
    xi_j = tau_j * xi_{j-1} + nbar_j + |1 - tau_j| / 2 starting from xi_0 = 0,
    and the compound output photon number is nbar_tot = xi_N - |1 - tau_tot| / 2.
    A chain of pure-loss links stays pure loss. Within NBAR_CLAMP_TOL a
    negative nbar_tot is clamped to 0, beyond that it is an error.
    """
    tau_tot = 1.0
    xi = 0.0
    lossless = True
    for tau, nbar in channels:
        if not 0.0 < tau <= 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
        if not nbar >= 0.0:
            raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
        eps = nbar + 0.5 * abs(1.0 - tau)
        xi = tau * xi + eps
        tau_tot *= tau
        lossless = lossless and nbar == 0.0
    if lossless:
        return tau_tot, 0.0
    nbar_tot = xi - 0.5 * abs(1.0 - tau_tot)
    if nbar_tot < 0.0:
        if nbar_tot < -NBAR_CLAMP_TOL:
            raise DomainError(f"compound photon number {nbar_tot} below rounding tolerance")
        nbar_tot = 0.0
    return tau_tot, nbar_tot


def _reference_compound(fam, send, edge, recv):
    """The reduction of one chain, as ``bounds.compounds`` does it for each of a
    batch, as it was before its closed form: the n-ary chain
    reductions ``compose_ad``/``compose_tl`` that the package once had, run on
    the three links, after the dark-edge shortcut."""
    if fam == "ad":
        return _compose_ad((send, edge, recv))
    if edge[0] == 0.0:
        return 0.0, 0.0
    return _compose_tl((send, edge, recv))


@pytest.fixture(scope="session")
def reference_compound():
    return _reference_compound


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` that imports the package from ``src``. ``env`` sets
    variables over this process's environment, a value of None removing one."""
    environ = {**os.environ, "PYTHONPATH": str(SRC)}
    for key, value in (env or {}).items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    return subprocess.run([sys.executable, *args], env=environ, **kwargs)


@pytest.fixture(scope="session")
def python():
    return _python

"""Sweep tables: one threshold bracket per point of a grid over one variable, as CSV.

Only the ``sweep`` subcommand loads this module; ``cli.cmd_sweep`` reads and
checks the spec and writes the lines that ``csv_lines`` returns.
"""

from __future__ import annotations

import math
from typing import Callable

from . import wrn
from .channels import AmplitudeDamping, ThermalLoss, fibre_transmissivity
from .errors import DomainError, checked_number

SWEEP_SCHEMA = "qnetcap-sweep/1"

# Larger sweeps are refused: each point is one threshold solve.
MAX_SWEEP_STEPS = 10_000

SWEEP_KEYS = {"variable", "start", "stop", "steps", "scale", "wrn", "target", "param", "qkd_setup"}

SWEEP_VARIABLES = (wrn.PARAM_EDGE_LENGTH, wrn.PARAM_INTERNAL_LOSS, wrn.PARAM_RECEIVER_NOISE, "targetCapacity")


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """``numpy.linspace(start, stop, steps)``, bit for bit, on a finite span."""
    span = stop - start
    step = span / (steps - 1)
    if step == 0.0:  # subnormal span: scale before multiplying, as numpy does
        xs = [i / (steps - 1) * span + start for i in range(steps)]
    else:
        xs = [i * step + start for i in range(steps)]
    xs[-1] = stop
    return xs


def _sweep_points(spec: dict) -> list[float]:
    steps = spec["steps"]
    if not isinstance(steps, int) or not 2 <= steps <= MAX_SWEEP_STEPS:
        raise DomainError(f"steps must be an integer from 2 to {MAX_SWEEP_STEPS}, got {steps!r}")
    start, stop = checked_number("start", spec["start"]), checked_number("stop", spec["stop"])
    if not math.isfinite(stop - start):  # also catches a non-finite start or stop
        raise DomainError(f"sweep range needs a finite stop - start, got [{start}, {stop}]")
    if not start < stop:
        raise DomainError(f"sweep range needs start < stop, got [{start}, {stop}]")
    scale = spec.get("scale", "linear")
    if scale == "linear":
        return _linspace(start, stop, steps)
    if scale != "log":
        raise DomainError(f"scale must be 'linear' or 'log', got {scale!r}")
    if start <= 0.0:
        raise DomainError(f"log sweeps need positive endpoints, got start={start}")
    # numpy.geomspace: a power of ten at each point of the linear grid of
    # exponents, with both endpoints pinned to the exact inputs. A rounded
    # exponent can reach log10(stop), whose power may exceed even the largest
    # float; such a point is stop itself.
    log_stop = math.log10(stop)
    inner = _linspace(math.log10(start), log_stop, steps)[1:-1]
    return [start, *(10.0**y if y < log_stop else stop for y in inner), stop]


def _fmt(x: float) -> str:
    return repr(float(x))


# Column stem of each solved parameter; edge-length columns add rho_min_*.
_SOLVED_STEM = {
    wrn.PARAM_EDGE_LENGTH: "d_max",
    wrn.PARAM_INTERNAL_LOSS: "p_int_max",
    wrn.PARAM_RECEIVER_NOISE: "nbar_r_max",
}


def _respec_length(spec: wrn.WrnSpec, d: float) -> wrn.WrnSpec:
    return spec._replace(edge_length_km=d)


def _respec_loss(spec: wrn.WrnSpec, p_int: float) -> wrn.WrnSpec:
    return spec._replace(recv=AmplitudeDamping(p_int))


def _respec_noise(spec: wrn.WrnSpec, nbar_r: float) -> wrn.WrnSpec:
    return spec._replace(recv=ThermalLoss(spec.recv[1], nbar_r))


def _qkd_columns(spec: wrn.WrnSpec, setup) -> tuple[list[str], Callable[[float], list[float]]]:
    """Headers and cells: receiver noise of both LO schemes, inf where no transmitted LO light is detected."""
    from . import qkd
    base = setup if setup is not None else qkd.from_preset("table1-heterodyne-llo")
    schemes = [qkd.with_scheme(base, scheme) for scheme in ("llo", "tlo")]
    for scheme in schemes:  # a setup that fails at full transmission is refused before any solve
        qkd.receiver_noise(scheme, 1.0)
    return ["nbar_r_llo", "nbar_r_tlo"], (
        lambda d: [qkd.receiver_noise(scheme, fibre_transmissivity(spec.gamma, d)) for scheme in schemes])


# (variable, family) -> (x column, re-spec at x, solved param, extra columns).
# targetCapacity sweeps the target itself. The QKD setup goes to the solve
# unless the extra columns report it.
_SWEEPS = {
    (wrn.PARAM_EDGE_LENGTH, "ad"): ("edge_length_km", _respec_length, wrn.PARAM_INTERNAL_LOSS, None),
    (wrn.PARAM_EDGE_LENGTH, "tl"): ("edge_length_km", _respec_length, wrn.PARAM_RECEIVER_NOISE, _qkd_columns),
    (wrn.PARAM_INTERNAL_LOSS, "ad"): ("p_int", _respec_loss, wrn.PARAM_EDGE_LENGTH, None),
    (wrn.PARAM_RECEIVER_NOISE, "tl"): ("nbar_r", _respec_noise, wrn.PARAM_EDGE_LENGTH, None),
}


def csv_lines(data: dict, spec: wrn.WrnSpec, setup) -> list[str]:
    """The lines of the table of the sweep spec ``data``, whose keys and variable are checked,
    over the lattice ``spec`` with the QKD ``setup``."""
    variable = data["variable"]
    points = _sweep_points(data)
    if variable == "targetCapacity":
        param = data.get("param", wrn.PARAM_EDGE_LENGTH)
        if not isinstance(param, str) or param not in _SOLVED_STEM:
            raise DomainError(f"unknown param {param!r}")
        x_column, respec, columns = "target_capacity", None, None
    else:
        if "target" not in data:
            raise DomainError(f"sweeps over {variable} need a fixed 'target' capacity")
        target = checked_number("target", data["target"])
        if (variable, spec.family) not in _SWEEPS:
            needs = "damping" if (variable, "ad") in _SWEEPS else "thermal"
            raise DomainError(f"{variable} sweeps need a {needs}-family lattice")
        if variable == wrn.PARAM_RECEIVER_NOISE and setup is not None:
            raise DomainError("receiverNoise sweeps take no qkd_setup: the QKD receiver model "
                              "sets the receiver noise that the sweep varies")
        x_column, respec, param, columns = _SWEEPS[variable, spec.family]
    stem = _SOLVED_STEM[param]
    header = [x_column, f"{stem}_lower", f"{stem}_upper"]
    with_rho = param == wrn.PARAM_EDGE_LENGTH
    if with_rho:
        header += ["rho_min_lower", "rho_min_upper"]
    extra_header, extra_cells = columns(spec, setup) if columns is not None else ([], lambda x: [])
    header += extra_header
    solve_setup = setup if columns is None else None
    if respec is None:  # one solve over every target
        results = wrn.thresholds(spec, [(x, "delta") for x in points], param, solve_setup)
    else:  # one solve per re-specced point, made as its row is
        results = (wrn.thresholds(respec(spec, x), [(target, "delta")], param, solve_setup)[0]
                   for x in points)
    lines = [
        f"# {SWEEP_SCHEMA}",
        f"# variable={variable} cell={spec.cell_type} family={spec.family} radius={spec.radius} scale=delta",
        ",".join(header),
    ]
    for x, result in zip(points, results):
        lo, up = result.from_lower_fn, result.from_upper_fn
        rho = [wrn.rho_min(lo, spec.cell_type), wrn.rho_min(up, spec.cell_type)] if with_rho else []
        lines.append(",".join(_fmt(value) for value in (x, lo, up, *rho, *extra_cells(x))))
    return lines

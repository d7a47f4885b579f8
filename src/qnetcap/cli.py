"""Command-line front end: JSON in, JSON or CSV out, stable exit codes.

Commands: generate (lattice patch to network JSON), validate (structural
checks), analyze (six-number capacity report plus min-cut), threshold
(bracketed tolerable-parameter solve, with connectivity constants and nodal
density), sweep (CSV tables over one variable), selftest (randomized oracle
batteries with a fixed seed).

Exit codes: 0 ok, 2 input error, 3 validation failure, 4 unattainable target,
5 internal numeric failure. Given identical inputs all output files are
byte-identical. The cycle collector is paused while a subcommand runs and
then restored to the caller's state.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable

from .channels import AmplitudeDamping, ThermalLoss, as_thermal, channel_from_json, fibre_transmissivity
from .errors import DomainError, MonotonicityError, NotAttainableError, QnetcapError, ValidationError

# Each function imports the package modules it calls, so a call loads only the
# code it runs: bounding a network needs no solver, a threshold solve no graph.
if TYPE_CHECKING:
    from . import network, qkd, routing, selfcheck, wrn

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_NOT_ATTAINABLE = 4
EXIT_NUMERIC = 5

# Lattice family defaults when a spec omits one: the triangular cell is the
# qubit scenario, the diagonal-square cell the bosonic one.
DEFAULT_FAMILY = {"triangular6": "ad", "manhattan8": "tl"}

SWEEP_SCHEMA = "qnetcap-sweep/1"

# Larger sweeps are refused: each point is one threshold solve.
MAX_SWEEP_STEPS = 10_000

# Module-level tables spell the solver's parameter names (``wrn.PARAM_*``)
# out, so that loading this module does not load ``wrn``.
_PARAM_BY_FLAG = {
    "edge-length": "edgeLength",
    "internal-loss": "internalLoss",
    "receiver-noise": "receiverNoise",
}

_WRN_KEYS = {
    "cell", "radius", "edge_length_km", "family", "gamma", "nbar_B",
    "recv", "send", "qkd_setup",
}

_SWEEP_KEYS = {"variable", "start", "stop", "steps", "scale", "wrn", "target", "param", "qkd_setup"}

_SWEEP_VARIABLES = ("edgeLength", "internalLoss", "receiverNoise", "targetCapacity")


def _read_json(path: str, parse: Callable = json.loads):
    """``parse`` of the text of the file at ``path``; input errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"{path} is nested too deeply to read: {exc}") from exc
    except QnetcapError:
        raise
    except ValueError as exc:  # malformed JSON or UTF-8, or an integer literal too long for int()
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text ``chunks`` to the file ``out_path``, or to stdout when it is None."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DomainError(f"cannot write {out_path}: {exc}") from exc


def _emit_json(obj, out_path: str | None) -> None:
    _emit((json.dumps(obj, indent=2), "\n"), out_path)


def _error(kind: str, message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message, **extra}) + "\n")


def _number(key: str, value, kind=float):
    """``kind(value)``, or an input error that names the spec key; an int refuses a fraction,
    and neither takes a JSON boolean."""
    if value is True or value is False:
        raise DomainError(f"{key} is not a valid {kind.__name__}: {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{key} is not a valid {kind.__name__}: {value!r}") from exc
    if kind is int and isinstance(value, float) and number != value:
        raise DomainError(f"{key} is not a valid int: {value!r}")
    return number


def _parse_qkd_setup(data) -> qkd.QkdSetup:
    from . import qkd
    if isinstance(data, str):
        return qkd.from_preset(data)
    if not isinstance(data, dict):
        raise DomainError(f"qkd_setup must be a preset name or an object, got {type(data).__name__}")
    fields = dict(data)
    preset = fields.pop("preset", None)
    base = qkd.from_preset(preset) if preset is not None else qkd.QkdSetup()
    unknown = sorted(set(fields) - set(qkd.QkdSetup._fields))
    if unknown:
        raise DomainError(f"unknown qkd_setup keys: {', '.join(unknown)}")
    for key, value in fields.items():
        if key != "scheme":
            fields[key] = _number(f"qkd_setup.{key}", value)
    return base._replace(**fields)


def _parse_wrn_spec(data) -> tuple[wrn.WrnSpec, qkd.QkdSetup | None]:
    from . import wrn
    if not isinstance(data, dict):
        raise DomainError("lattice spec must be a JSON object")
    unknown = sorted(set(data) - _WRN_KEYS)
    if unknown:
        raise DomainError(f"unknown lattice spec keys: {', '.join(unknown)}")
    for key in ("cell", "radius", "edge_length_km"):
        if key not in data:
            raise DomainError(f"lattice spec is missing {key!r}")
    cell = data["cell"]
    if not isinstance(cell, str):
        raise DomainError(f"cell must be a string, got {cell!r}")
    family = data.get("family", DEFAULT_FAMILY.get(cell))
    if family is None:
        raise DomainError(f"unknown cell {cell!r}; declare family explicitly")
    kwargs = {"cell_type": cell, "family": family}
    for key, kind in (("radius", int), ("edge_length_km", float), ("gamma", float), ("nbar_B", float)):
        if key in data:
            kwargs[key] = _number(key, data[key], kind)
    for side in ("recv", "send"):
        if side in data:
            kwargs[side] = channel_from_json(data[side])
    setup = _parse_qkd_setup(data["qkd_setup"]) if "qkd_setup" in data else None
    return wrn.WrnSpec(**kwargs), setup


def cmd_generate(args) -> int:
    from . import network, wrn
    family = args.family or DEFAULT_FAMILY[args.cell]
    spec = wrn.WrnSpec(
        cell_type=args.cell,
        radius=args.radius,
        edge_length_km=args.d,
        family=family,
        gamma=args.gamma,
        nbar_B=args.nbar_b,
    )
    for flag, value in (("--d", args.d), ("--nbar-b", args.nbar_b)):
        if math.isinf(value):  # JSON has no infinity; the spec refuses nan and -inf
            raise DomainError(f"a network file holds finite numbers only, got {flag} {value}")
    graph = wrn.generate(spec)
    # Every value is encoded before the file is opened, and the text is written in pieces.
    _emit(itertools.chain(network.network_json_chunks(graph), ("\n",)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import network
    _, violations = _read_json(getattr(args, "in"), network.load_network)
    _emit_json({"violations": violations}, args.out)
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_analyze(args) -> int:
    from . import network, routing
    graph, violations = _read_json(getattr(args, "in"), network.load_network)
    if violations or graph is None:
        _error("validation", "network failed validation", violations=violations)
        return EXIT_VALIDATION
    bg = network.apply_split(graph)
    report = routing.capacity_report(bg)
    out = {
        "users": list(bg.users),
        "report": report.as_dict(),
        "mincut": {"value": report.flooding_upper, **routing.cut_to_json(report.upper_mincut)},
    }
    _emit_json(out, args.out)
    return EXIT_OK


def _rho_cells(d_star: float, cell_type: str) -> float:
    from . import wrn
    if math.isnan(d_star):
        return math.nan
    return wrn.min_nodal_density(d_star, cell_type).rho_min


def _rho_min_entry(bracket: tuple[float, float], cell_type: str) -> dict:
    d_lo, d_hi = bracket
    return {
        "bracket": [_rho_cells(d_hi, cell_type), _rho_cells(d_lo, cell_type)],
        "midpoint": _rho_cells(0.5 * (d_lo + d_hi), cell_type),
    }


def cmd_threshold(args) -> int:
    from . import wrn
    spec, setup = _parse_wrn_spec(_read_json(args.spec))
    param = _PARAM_BY_FLAG[args.param]
    bulk, user = wrn.threshold_report(spec, args.target, param, qkd_setup=setup)
    delta_val, (omega_num, omega_den) = wrn.connectivity(spec)
    out = {
        "cell": spec.cell_type,
        "k": spec.k,
        "delta": delta_val,
        "omega": f"{omega_num}/{omega_den}",
        "omega_value": omega_num / omega_den,
        "param": param,
        "target": args.target,
        "bulk": bulk.as_json(),
        "user": user.as_json(),
    }
    if param == wrn.PARAM_EDGE_LENGTH:
        out["rho_min"] = _rho_min_entry(bulk.bracket, spec.cell_type)
    _emit_json(out, args.out)
    return EXIT_OK


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
    start, stop = _number("start", spec["start"]), _number("stop", spec["stop"])
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
    "edgeLength": "d_max",
    "internalLoss": "p_int_max",
    "receiverNoise": "nbar_r_max",
}


def _respec_length(spec: wrn.WrnSpec, d: float) -> wrn.WrnSpec:
    return spec._replace(edge_length_km=d)


def _respec_loss(spec: wrn.WrnSpec, p_int: float) -> wrn.WrnSpec:
    return spec._replace(recv=AmplitudeDamping(p_int))


def _respec_noise(spec: wrn.WrnSpec, nbar_r: float) -> wrn.WrnSpec:
    return spec._replace(recv=ThermalLoss(as_thermal(spec.recv)[0], nbar_r))


def _qkd_columns(spec: wrn.WrnSpec, setup) -> tuple[list[str], Callable[[float], list[float]]]:
    """Headers and cells: receiver noise of both LO schemes, nan where too little light arrives."""
    from . import qkd
    base = setup if setup is not None else qkd.from_preset("table1-heterodyne-llo")
    schemes = [qkd.with_scheme(base, scheme) for scheme in ("llo", "tlo")]
    for scheme in schemes:  # a setup that fails at full transmission fails at every length
        qkd.receiver_noise(scheme, 1.0)

    def cell(scheme, d: float) -> float:
        try:
            return qkd.receiver_noise(scheme, fibre_transmissivity(spec.gamma, d))
        except DomainError:
            return math.nan

    return ["nbar_r_llo", "nbar_r_tlo"], (lambda d: [cell(scheme, d) for scheme in schemes])


# (variable, family) -> (x column, re-spec at x, solved param, extra columns).
# targetCapacity sweeps the target itself. The QKD setup goes to the solve
# unless the extra columns report it.
_SWEEPS = {
    ("edgeLength", "ad"): ("edge_length_km", _respec_length, "internalLoss", None),
    ("edgeLength", "tl"): ("edge_length_km", _respec_length, "receiverNoise", _qkd_columns),
    ("internalLoss", "ad"): ("p_int", _respec_loss, "edgeLength", None),
    ("receiverNoise", "tl"): ("nbar_r", _respec_noise, "edgeLength", None),
}


def _sweep_rows(data: dict, spec: wrn.WrnSpec, setup) -> tuple[list[str], list[list[float]]]:
    from . import wrn
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
        target = _number("target", data["target"])
        if (variable, spec.family) not in _SWEEPS:
            needs = "damping" if (variable, "ad") in _SWEEPS else "thermal"
            raise DomainError(f"{variable} sweeps need a {needs}-family lattice")
        if variable == "receiverNoise" and setup is not None:
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
    rows = []
    for x, result in zip(points, results):
        lo, up = result.from_lower_fn, result.from_upper_fn
        rho = [_rho_cells(lo, spec.cell_type), _rho_cells(up, spec.cell_type)] if with_rho else []
        rows.append([x, lo, up, *rho, *extra_cells(x)])
    return header, rows


def cmd_sweep(args) -> int:
    data = _read_json(args.spec)
    if not isinstance(data, dict):
        raise DomainError("sweep spec must be a JSON object")
    unknown = sorted(set(data) - _SWEEP_KEYS)
    if unknown:
        raise DomainError(f"unknown sweep spec keys: {', '.join(unknown)}")
    for key in ("variable", "start", "stop", "steps", "wrn"):
        if key not in data:
            raise DomainError(f"sweep spec is missing {key!r}")
    if data["variable"] not in _SWEEP_VARIABLES:
        raise DomainError(f"variable must be one of {_SWEEP_VARIABLES}, got {data['variable']!r}")
    spec, file_setup = _parse_wrn_spec(data["wrn"])
    setup = _parse_qkd_setup(data["qkd_setup"]) if "qkd_setup" in data else file_setup
    header, rows = _sweep_rows(data, spec, setup)
    lines = [
        f"# {SWEEP_SCHEMA}",
        f"# variable={data['variable']} cell={spec.cell_type} family={spec.family} "
        f"radius={spec.radius} scale=delta",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _emit(("\n".join(lines), "\n"), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selfcheck
    if args.count < 1:
        raise DomainError(f"--count must be at least 1, got {args.count}")
    failed = False
    for name, worst, tol in selfcheck.run(args.seed, args.count):
        ok = worst <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: worst deviation {worst:.3e} (tol {tol:g})")
    return EXIT_OK if not failed else EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetcap",
        description="Capacity bounds for quantum repeater networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a lattice patch as network JSON")
    gen.add_argument("--cell", required=True, choices=sorted(DEFAULT_FAMILY))
    gen.add_argument("--radius", required=True, type=int)
    gen.add_argument("--d", required=True, type=float, help="edge length in km")
    gen.add_argument("--family", choices=("ad", "tl"))
    gen.add_argument("--gamma", type=float, default=0.02)
    gen.add_argument("--nbar-b", type=float, default=0.002)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="structural checks on a network JSON")
    val.add_argument("--in", required=True)
    val.add_argument("--out")
    val.set_defaults(func=cmd_validate)

    ana = sub.add_parser("analyze", help="six-number capacity report plus min-cut")
    ana.add_argument("--in", required=True)
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analyze)

    thr = sub.add_parser("threshold", help="bracketed tolerable-parameter solve")
    thr.add_argument("--spec", required=True)
    thr.add_argument("--target", required=True, type=float)
    thr.add_argument("--param", required=True, choices=sorted(_PARAM_BY_FLAG))
    thr.add_argument("--out")
    thr.set_defaults(func=cmd_threshold)

    swp = sub.add_parser("sweep", help="CSV table over one swept variable")
    swp.add_argument("--spec", required=True)
    swp.add_argument("--out")
    swp.set_defaults(func=cmd_sweep)

    st = sub.add_parser("selftest", help="randomized oracle batteries")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--count", type=int, default=30)
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Safe: a subcommand's data is acyclic, so reference counting frees it, and a
    # call is short; any cyclic garbage is returned when the process exits.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ValidationError as exc:
        _error("validation", str(exc), violations=exc.violations)
        return EXIT_VALIDATION
    except NotAttainableError as exc:
        _error("not-attainable", str(exc))
        return EXIT_NOT_ATTAINABLE
    except MonotonicityError as exc:
        _error("numeric", str(exc))
        return EXIT_NUMERIC
    except QnetcapError as exc:
        _error("input", str(exc))
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

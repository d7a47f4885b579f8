"""Command-line front end: JSON in, JSON or CSV out, stable exit codes.

Commands: generate (lattice patch to network JSON), validate (structural
checks), analyze (six-number capacity report plus min-cut), threshold
(bracketed tolerable-parameter solve, with connectivity constants and nodal
density), sweep (CSV tables over one variable, built by the ``sweep``
module), selftest (randomized oracle batteries with a fixed seed). A lattice
spec's JSON form is read by ``wrn``, and a network file by ``network`` and
``reader``.

Exit codes: 0 ok, 2 input error, 3 validation failure, 4 unattainable target,
5 internal numeric failure; a failed write to standard output is an input
error. Given identical inputs all output files are byte-identical. The cycle
collector is paused while a subcommand runs and then restored to the
caller's state. ``run`` is the process entry and ``main`` the in-process one.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn

from .channels import DEFAULT_FAMILY, DEFAULT_GAMMA, DEFAULT_NBAR_B
from .errors import DomainError, MonotonicityError, NotAttainableError, QnetcapError, ValidationError

# Each function imports the package modules it calls, so a call loads only the
# code it runs: bounding a network needs no solver, a threshold solve no graph.
if TYPE_CHECKING:
    from . import network, routing, selfcheck, wrn

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_NOT_ATTAINABLE = 4
EXIT_NUMERIC = 5

# Module-level tables spell the solver's parameter names (``wrn.PARAM_*``)
# out, so that loading this module does not load ``wrn``.
_PARAM_BY_FLAG = {
    "edge-length": "edgeLength",
    "internal-loss": "internalLoss",
    "receiver-noise": "receiverNoise",
}

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


def _stdout_failed(exc: OSError) -> str:
    """The input-error message for the failed write to stdout ``exc``. The bytes
    still pending in stdout's buffer are dropped: its descriptor now points at
    the null device, so no later flush, ours or the interpreter's, retries them."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)
    return f"cannot write standard output: {exc}"


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text ``chunks`` to the file ``out_path``, or to stdout when it is None."""
    if out_path is None:
        try:
            sys.stdout.writelines(chunks)
        except OSError as exc:
            raise DomainError(_stdout_failed(exc)) from exc
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


def cmd_threshold(args) -> int:
    from . import wrn
    spec, setup = wrn._parse_wrn_spec(_read_json(args.spec))
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
        d_lo, d_hi = bulk.bracket
        out["rho_min"] = {
            "bracket": [wrn.rho_min(d_hi, spec.cell_type), wrn.rho_min(d_lo, spec.cell_type)],
            "midpoint": wrn.rho_min(0.5 * (d_lo + d_hi), spec.cell_type),
        }
    _emit_json(out, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import sweep, wrn
    data = _read_json(args.spec)
    if not isinstance(data, dict):
        raise DomainError("sweep spec must be a JSON object")
    unknown = sorted(set(data) - sweep.SWEEP_KEYS)
    if unknown:
        raise DomainError(f"unknown sweep spec keys: {', '.join(unknown)}")
    for key in ("variable", "start", "stop", "steps", "wrn"):
        if key not in data:
            raise DomainError(f"sweep spec is missing {key!r}")
    if data["variable"] not in sweep.SWEEP_VARIABLES:
        raise DomainError(f"variable must be one of {sweep.SWEEP_VARIABLES}, got {data['variable']!r}")
    spec, setup = wrn._parse_wrn_spec(data["wrn"])
    if "qkd_setup" in data:
        from .qkd import _parse_qkd_setup
        setup = _parse_qkd_setup(data["qkd_setup"])
    _emit(("\n".join(sweep.csv_lines(data, spec, setup)), "\n"), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selfcheck
    if args.count < 1:
        raise DomainError(f"--count must be at least 1, got {args.count}")
    failed = False
    for name, worst, tol in selfcheck.run(args.seed, args.count):
        ok = worst <= tol
        failed = failed or not ok
        _emit((f"{'PASS' if ok else 'FAIL'} {name}: worst deviation {worst:.3e} (tol {tol:g})\n",), None)
    return EXIT_OK if not failed else EXIT_NUMERIC


# The command line, declared once: each subcommand's help and flags, by flag the ``add_argument`` keywords.
# A subcommand's handler is ``cmd_<subcommand>``, looked up when a call runs, so a replaced one is called.
_COMMANDS = {
    "generate": ("emit a lattice patch as network JSON", {
        "--cell": {"required": True, "choices": sorted(DEFAULT_FAMILY)},
        "--radius": {"required": True, "type": int},
        "--d": {"required": True, "type": float, "help": "edge length in km"},
        "--family": {"choices": ("ad", "tl")},
        "--gamma": {"type": float, "default": DEFAULT_GAMMA},
        "--nbar-b": {"type": float, "default": DEFAULT_NBAR_B},
        "--out": {},
    }),
    "validate": ("structural checks on a network JSON", {"--in": {"required": True}, "--out": {}}),
    "analyze": ("six-number capacity report plus min-cut", {"--in": {"required": True}, "--out": {}}),
    "threshold": ("bracketed tolerable-parameter solve", {
        "--spec": {"required": True},
        "--target": {"required": True, "type": float},
        "--param": {"required": True, "choices": sorted(_PARAM_BY_FLAG)},
        "--out": {},
    }),
    "sweep": ("CSV table over one swept variable", {"--spec": {"required": True}, "--out": {}}),
    "selftest": ("randomized oracle batteries", {"--seed": {"type": int, "default": 0},
                                                 "--count": {"type": int, "default": 30}}),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argparse's reading of a well-formed ``argv``, else None: a subcommand, then ``--flag value`` pairs with exact
    flags and values not starting with "-" passing type and choices, the last repeat counting, every required given."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags, values = _COMMANDS[argv[0]][1], {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        spec = flags.get(flag)
        if spec is None or text.startswith("-"):
            return None
        try:
            value = values[flag] = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
    if any(spec.get("required") and flag not in values for flag, spec in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], func=globals()[f"cmd_{argv[0]}"], **{
        flag[2:].replace("-", "_"): values.get(flag, spec.get("default")) for flag, spec in flags.items()})


def _build_parser():
    """argparse's parser of ``_COMMANDS``, for the calls ``_read_argv`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser, whose help and usage on stdout have ``_emit``'s guard:
        a failed write is an input error. They are flushed at once, since argparse
        ends the call with ``SystemExit``, which ``run`` does not flush after."""

        def _print_message(self, message, file=None):
            if file is not sys.stdout:
                return super()._print_message(message, file)
            try:
                sys.stdout.write(message)
                sys.stdout.flush()
            except OSError as exc:
                _error("input", _stdout_failed(exc))
                self.exit(EXIT_INPUT)

    parser = _Parser(prog="qnetcap", description="Capacity bounds for quantum repeater networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=text)
        for flag, spec in flags.items():
            subparser.add_argument(flag, **spec)
        subparser.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the call ``argv`` (default ``sys.argv[1:]``) and return its exit code. A well-formed call
    is read from ``_COMMANDS`` without argparse; argparse reads any other, and for help or a usage
    error prints its text and raises ``SystemExit``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _build_parser().parse_args(argv)
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


def run() -> NoReturn:
    """The process entry: ``main()`` on the command line, then exit with its code.

    The exit skips interpreter teardown. Tearing down every module that ``site``
    and the package imported adds about 10 ms to a call, and the OS frees the
    memory anyway; every file the package opens is closed by its ``with``
    block, and it starts no threads. So stdout is flushed, the ``atexit``
    handlers run, stdout is flushed again for what they printed, stderr is
    flushed, and ``os._exit`` ends the process, as mypy ends its runs. An
    exception that leaves ``main`` (argparse's ``SystemExit`` after help or a
    usage error) takes the interpreter's normal exit.
    """
    code = _flush_stdout(main())
    atexit._run_exitfuncs()
    code = _flush_stdout(code)
    sys.stderr.flush()
    os._exit(code)


def _flush_stdout(code: int) -> int:
    """``code``, or EXIT_INPUT when what stdout holds cannot be written."""
    try:
        sys.stdout.flush()
    except OSError as exc:
        _error("input", _stdout_failed(exc))
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    run()

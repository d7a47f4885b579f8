"""Channel rows: channel specifications, fibre parameterization and their JSON form.

Two channel families are modelled. Amplitude damping acts on qubits and is
specified by a damping probability p, but computed in the survival probability
eta = 1 - p, which a fibre gives unrounded as its transmissivity. Thermal loss
acts on bosonic modes and is described by a transmissivity tau together with
the mean photon number nbar added at the output; pure loss is the nbar = 0
special case. ``fibre_transmissivity`` is the one fibre loss law.

A channel is its row (kind, eta, last, length_km, gamma): its kind ("ad",
"tl", FIBRE, or None for an ideal device), its survival probability eta, its
last parameter (p, nbar or nbar_B), and a fibre's length_km and gamma, else
0.0. Only the constructors ``AmplitudeDamping``, ``ThermalLoss`` and
``FibreParams`` build a row, each range-checking its numbers, and
``IDENTITY`` is the row of an ideal device. ``row_from_json`` reads a channel
object through them and ``row_to_json`` writes one; ``rows_of`` builds the
rows of columns of the numbers that ``written_numbers`` finds in such objects,
as the constructors do. ``check_row`` is the one
gate for a row from outside the package, and ``native(fam, row)`` gives a
row's numbers in family ``fam`` and rejects a channel of the other family.
``bounds.compounds`` reduces node-split chains of them to single channels.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .errors import DomainError, FamilyError, checked

FAMILY_AD = "ad"
FAMILY_TL = "tl"
FIBRE = "fibre"  # the kind of a fibre in a row
# A lattice cell's family when a spec omits one: the triangular cell is the
# qubit scenario, the diagonal-square cell the bosonic one.
DEFAULT_FAMILY = {"triangular6": FAMILY_AD, "manhattan8": FAMILY_TL}
DEFAULT_GAMMA = 0.02  # a fibre's loss rate per km when none is given
DEFAULT_NBAR_B = 0.002  # a fibre's background photons when none are given

ROLES = ("repeater", "user")  # the roles of a node
IDENTITY = (None, 1.0, 0.0, 0.0, 0.0)  # the row of an ideal device, neutral in either family


def AmplitudeDamping(p: float) -> tuple:
    """The row of the qubit energy-dissipation channel with damping probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"damping probability must lie in [0, 1], got {p}")
    return FAMILY_AD, 1.0 - p, p, 0.0, 0.0


def ThermalLoss(tau: float, nbar: float = 0.0) -> tuple:
    """The row of the bosonic loss channel of transmissivity tau adding nbar thermal photons at the output."""
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
    if not nbar >= 0.0:
        raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
    return FAMILY_TL, tau, nbar, 0.0, 0.0


def fibre_transmissivity(gamma: float, length_km: float) -> float:
    """Transmissivity 10^(-gamma*d) of d km of fibre with loss rate gamma."""
    return 10.0 ** (-gamma * length_km)


def FibreParams(length_km: float, gamma: float = DEFAULT_GAMMA, nbar_B: float = DEFAULT_NBAR_B) -> tuple:
    """The row of a fibre link of length_km with loss rate gamma (per km, base-10 exponent).

    The background photon number nbar_B is a fixed per-edge constant added at
    the output, independent of the fibre length.
    """
    if not length_km >= 0.0:
        raise DomainError(f"fibre length must be >= 0 km, got {length_km}")
    if not 0.0 < gamma < math.inf:  # an infinite rate makes 10^(-gamma*0) nan
        raise DomainError(f"loss rate must be finite and > 0 per km, got {gamma}")
    if not nbar_B >= 0.0:
        raise DomainError(f"background photons must be >= 0, got {nbar_B}")
    return FIBRE, fibre_transmissivity(gamma, length_km), nbar_B, length_km, gamma


def check_row(row) -> tuple:
    """``row`` if it is the tuple its kind's constructor builds from the row's own fields. Out-of-range
    numbers raise the constructor's DomainError, and anything else FamilyError."""
    if type(row) is tuple and len(row) == 5:
        kind, eta, last, length_km, gamma = row
        try:
            if kind == FAMILY_TL:
                built = ThermalLoss(eta, last)
            elif kind == FAMILY_AD:
                built = AmplitudeDamping(last)
            elif kind == FIBRE:
                built = FibreParams(length_km, gamma, last)
            else:
                built = IDENTITY if kind is None else None
        except TypeError:  # a field that is not a number
            built = None
        if row == built:
            return row
    raise FamilyError(f"not a channel spec or fibre: {row!r}")


def native(fam: str, row: tuple):
    """The numbers of a channel's or a fibre's ``check_row`` in family ``fam``: "ad", eta = 1 - p;
    "tl", (tau, nbar). IDENTITY is 1.0 or (1.0, 0.0); a fibre is its ``fibre_transmissivity``, with its
    nbar_B in "tl"."""
    if fam not in (FAMILY_AD, FAMILY_TL):
        raise FamilyError(f"unknown channel family {fam!r}")
    kind, eta, last, _, _ = check_row(row)
    if kind not in (fam, None, FIBRE):
        expected = "a thermal-loss" if fam == FAMILY_TL else "an amplitude-damping"
        raise FamilyError(f"expected {expected} channel, got {row_to_json(*row)}")
    return (eta, last) if fam == FAMILY_TL else eta


@checked
class NodeSpec(NamedTuple):
    """A network node with internal receive and send channels.

    ``recv`` acts on anything arriving at the node before local processing;
    ``send`` acts on anything leaving it. Both are rows and default to
    IDENTITY (an ideal device). ``role`` distinguishes end users from repeaters.
    """

    id: str
    recv: tuple = IDENTITY
    send: tuple = IDENTITY
    role: str = "repeater"

    def _check(self):
        check_role(self.role)


def check_role(role: str) -> str:
    """``role`` if it names a node role, else DomainError."""
    if role not in ROLES:
        raise DomainError(f"node role must be 'repeater' or 'user', got {role!r}")
    return role


def row_to_json(kind: str | None, eta: float, last: float, length_km: float, gamma: float) -> dict:
    """The JSON object of a row, which ``row_from_json`` reads back: a fibre's is its ``FibreParams``
    arguments. FamilyError for a kind that names no channel."""
    if kind == FIBRE:
        return {"length_km": length_km, "gamma": gamma, "nbar_B": last}
    if kind == FAMILY_TL:
        return {"kind": "tl", "tau": eta, "nbar": last}
    if kind == FAMILY_AD:
        return {"kind": "ad", "p": last}
    if kind is None:
        return {"kind": "id"}
    raise FamilyError(f"unknown channel kind {kind!r}")


def _field(data: dict, key: str, default: float | None = None) -> float:
    """``float`` of a channel field; a JSON boolean, which float() reads as 1 or 0, is refused."""
    value = data[key] if default is None else data.get(key, default)
    if value is True or value is False:
        raise DomainError(f"channel field {key!r} must be a number, got {value}")
    return float(value)


def row_from_json(data: dict) -> tuple:
    """The row of a channel object, built by its constructor."""
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError(f"channel object needs a 'kind' tag, got {data!r}")
    kind = data["kind"]
    try:
        if kind == "tl":
            return ThermalLoss(_field(data, "tau"), _field(data, "nbar", 0.0))
        if kind == "pl":  # pure loss: thermal loss with no added photons
            return ThermalLoss(_field(data, "eta"))
        if kind == "ad":
            return AmplitudeDamping(_field(data, "p"))
        if kind == "id":
            return IDENTITY
    except KeyError as exc:
        raise DomainError(f"channel kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"bad channel field in {data!r}: {exc}") from exc
    raise DomainError(f"unknown channel kind {kind!r}")


def written_numbers(data, fibre: bool) -> list | None:
    """The numbers of ``data`` in text order, if it is the object ``row_to_json`` writes for a fibre, or
    else for a channel, with floats for numbers; else None."""
    kind = FIBRE if fibre else type(data) is dict and data.get("kind")
    if type(data) is not dict or kind not in (FIBRE, FAMILY_TL, FAMILY_AD) or (
            [*data] != [*row_to_json(kind, 1.0, 0.0, 0.0, 0.0)]):
        return None
    numbers = [value for key, value in data.items() if key != "kind"]
    return numbers if all(type(value) is float for value in numbers) else None


def rows_of(kind: str, columns: list[list[float]]) -> list[tuple]:
    """The rows of the channels of ``kind`` whose ``written_numbers`` are ``columns``, a column per
    number, as its constructor builds them. The constructor's ranges are intervals, so it checks
    each column's least and greatest numbers, raising its DomainError."""
    constructor = {FAMILY_TL: ThermalLoss, FAMILY_AD: AmplitudeDamping, FIBRE: FibreParams}[kind]
    for pick in (min, max):
        constructor(*map(pick, columns))
    if kind == FIBRE:
        length, gamma, nbar_b = columns
        return list(zip(repeat(kind), map(fibre_transmissivity, gamma, length), nbar_b, length, gamma))
    eta = columns[0] if kind == FAMILY_TL else map((1.0).__sub__, columns[0])
    return list(zip(repeat(kind), eta, columns[-1], repeat(0.0), repeat(0.0)))

"""Channel specifications, fibre parameterization and channel rows.

Two channel families are modelled. Amplitude damping acts on qubits and is
specified by a damping probability p, but computed in the survival probability
eta = 1 - p, which a fibre gives unrounded as its transmissivity. Thermal loss
acts on bosonic modes and is described by a transmissivity tau together with
the mean photon number nbar added at the output; pure loss is the nbar = 0
special case. ``fibre_transmissivity`` is the one fibre loss law.

A row (kind, eta, last, length_km, gamma) holds a channel as those numbers,
and every row is built and encoded here: ``row_of`` gives a record's,
``fibre_row`` a fibre's, ``row_from_json`` reads a channel object with no
record, ``row_to_json`` writes one, and ``record`` builds the record back.
``native(fam, channel)`` gives a record's row numbers in family ``fam`` and
rejects a channel of the other family; ``bounds.compounds`` reduces
node-split chains of them to single channels. Each record kind's range
check, ``check_damping``, ``check_thermal`` or ``check_fibre``, is shared by
the record and the reader.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .errors import DomainError, FamilyError, checked

FAMILY_AD = "ad"
FAMILY_TL = "tl"
FIBRE = "fibre"  # the kind of a fibre in a row


def check_damping(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"damping probability must lie in [0, 1], got {p}")


def check_thermal(tau: float, nbar: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
    if not nbar >= 0.0:
        raise DomainError(f"thermal photon number must be >= 0, got {nbar}")


def check_fibre(length_km: float, gamma: float, nbar_B: float) -> None:
    if not length_km >= 0.0:
        raise DomainError(f"fibre length must be >= 0 km, got {length_km}")
    if not 0.0 < gamma < math.inf:  # an infinite rate makes 10^(-gamma*0) nan
        raise DomainError(f"loss rate must be finite and > 0 per km, got {gamma}")
    if not nbar_B >= 0.0:
        raise DomainError(f"background photons must be >= 0, got {nbar_B}")


@checked
class AmplitudeDamping(NamedTuple):
    """Qubit energy-dissipation channel with damping probability p."""

    p: float

    def _check(self):
        check_damping(self.p)


@checked
class ThermalLoss(NamedTuple):
    """Bosonic loss channel: transmissivity tau, output thermal photons nbar."""

    tau: float
    nbar: float = 0.0

    def _check(self):
        check_thermal(self.tau, self.nbar)


class Identity(NamedTuple):
    """Neutral element for composition in either family."""

    def __bool__(self) -> bool:  # a tuple of no fields would read as false
        return True


IDENTITY = Identity()
ChannelSpec = Union[AmplitudeDamping, ThermalLoss, Identity]


def fibre_transmissivity(gamma: float, length_km: float) -> float:
    """Transmissivity 10^(-gamma*d) of d km of fibre with loss rate gamma."""
    return 10.0 ** (-gamma * length_km)


@checked
class FibreParams(NamedTuple):
    """Fibre link of length_km with loss rate gamma (per km, base-10 exponent).

    The background photon number nbar_B is a fixed per-edge constant added at
    the output, independent of the fibre length.
    """

    length_km: float
    gamma: float = 0.02
    nbar_B: float = 0.002

    def _check(self):
        check_fibre(*self)


def native(fam: str, channel: ChannelSpec | FibreParams):
    """The numbers of a channel spec or a fibre in family ``fam``, from its ``row_of``: "ad", eta = 1 - p;
    "tl", (tau, nbar). Identity is 1.0 or (1.0, 0.0); a fibre is its ``fibre_transmissivity``, with its
    nbar_B in "tl"."""
    if fam not in (FAMILY_AD, FAMILY_TL):
        raise FamilyError(f"unknown channel family {fam!r}")
    kind, eta, last, _, _ = row_of(channel)
    if kind not in (fam, None, FIBRE):
        expected = "a thermal-loss" if fam == FAMILY_TL else "an amplitude-damping"
        raise FamilyError(f"expected {expected} channel, got {channel!r}")
    return (eta, last) if fam == FAMILY_TL else eta


@checked
class NodeSpec(NamedTuple):
    """A network node with internal receive and send channels.

    ``recv`` acts on anything arriving at the node before local processing;
    ``send`` acts on anything leaving it. Both default to Identity (an ideal
    device). ``role`` distinguishes end users from repeaters.
    """

    id: str
    recv: ChannelSpec = IDENTITY
    send: ChannelSpec = IDENTITY
    role: str = "repeater"

    def _check(self):
        check_role(self.role)


def check_role(role: str) -> str:
    """``role`` if it names a node role, else DomainError."""
    if role not in ("repeater", "user"):
        raise DomainError(f"node role must be 'repeater' or 'user', got {role!r}")
    return role


def fibre_row(length_km: float, gamma: float, nbar_B: float) -> tuple:
    """The row of a fibre's numbers, unchecked: its ``fibre_transmissivity`` and nbar_B, then length_km and gamma."""
    return FIBRE, fibre_transmissivity(gamma, length_km), nbar_B, length_km, gamma


def row_of(channel: ChannelSpec | FibreParams) -> tuple:
    """The row of a channel spec or a fibre; FamilyError for any other object. A row is a
    ``network.ChannelColumns`` entry: kind ("ad", "tl", FIBRE or None for Identity), survival
    probability eta, the record's last field, and a fibre's length_km and gamma (else 0.0)."""
    if isinstance(channel, FibreParams):
        return fibre_row(*channel)
    if isinstance(channel, ThermalLoss):
        return FAMILY_TL, channel.tau, channel.nbar, 0.0, 0.0
    if isinstance(channel, AmplitudeDamping):
        return FAMILY_AD, 1.0 - channel.p, channel.p, 0.0, 0.0
    if isinstance(channel, Identity):
        return None, 1.0, 0.0, 0.0, 0.0
    raise FamilyError(f"not a channel spec or fibre: {channel!r}")


def record(kind: str | None, eta: float, last: float, length_km: float, gamma: float):
    """The FibreParams or channel spec of a row."""
    if kind == FIBRE:
        return FibreParams(length_km, gamma, last)
    if kind == FAMILY_TL:
        return ThermalLoss(eta, last)
    return IDENTITY if kind is None else AmplitudeDamping(last)


def row_to_json(kind: str | None, eta: float, last: float, length_km: float, gamma: float) -> dict:
    """The JSON object of a row, which ``row_from_json`` reads back: a fibre's is its FibreParams fields."""
    if kind == FIBRE:
        return {"length_km": length_km, "gamma": gamma, "nbar_B": last}
    if kind == FAMILY_TL:
        return {"kind": "tl", "tau": eta, "nbar": last}
    return {"kind": "id"} if kind is None else {"kind": "ad", "p": last}


def _field(data: dict, key: str, default: float | None = None) -> float:
    """``float`` of a channel field; a JSON boolean, which float() reads as 1 or 0, is refused."""
    value = data[key] if default is None else data.get(key, default)
    if value is True or value is False:
        raise DomainError(f"channel field {key!r} must be a number, got {value}")
    return float(value)


def row_from_json(data: dict) -> tuple:
    """The row of a channel object, range-checked with its record's check."""
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError(f"channel object needs a 'kind' tag, got {data!r}")
    kind = data["kind"]
    try:
        if kind == "tl":
            tau, nbar = _field(data, "tau"), _field(data, "nbar", 0.0)
        elif kind == "pl":  # pure loss: thermal loss with no added photons
            tau, nbar = _field(data, "eta"), 0.0
        elif kind == "ad":
            check_damping(p := _field(data, "p"))
            return FAMILY_AD, 1.0 - p, p, 0.0, 0.0
        elif kind == "id":
            return None, 1.0, 0.0, 0.0, 0.0
        else:
            raise DomainError(f"unknown channel kind {kind!r}")
    except KeyError as exc:
        raise DomainError(f"channel kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"bad channel field in {data!r}: {exc}") from exc
    check_thermal(tau, nbar)
    return FAMILY_TL, tau, nbar, 0.0, 0.0

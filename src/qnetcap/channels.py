"""Channel specifications and fibre parameterization.

Two channel families are modelled. Amplitude damping acts on qubits and is
specified by a damping probability p, but computed in the survival probability
eta = 1 - p, which a fibre gives unrounded as its transmissivity. Thermal loss
acts on bosonic modes and is described by a transmissivity tau together with
the mean photon number nbar added at the output; pure loss is the nbar = 0
special case. ``fibre_transmissivity`` is the one fibre loss law.

``as_damping``/``as_thermal`` convert a channel spec or a fibre to those
family-native numbers and reject a channel of the other family;
``bounds.compound`` reduces a node-split chain of them to one channel.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .errors import DomainError, FamilyError, checked

FAMILY_AD = "ad"
FAMILY_TL = "tl"


@checked
class AmplitudeDamping(NamedTuple):
    """Qubit energy-dissipation channel with damping probability p."""

    p: float

    def _check(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"damping probability must lie in [0, 1], got {self.p}")


@checked
class ThermalLoss(NamedTuple):
    """Bosonic loss channel: transmissivity tau, output thermal photons nbar."""

    tau: float
    nbar: float = 0.0

    def _check(self):
        if not 0.0 < self.tau <= 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1], got {self.tau}")
        if not self.nbar >= 0.0:
            raise DomainError(f"thermal photon number must be >= 0, got {self.nbar}")


class Identity(NamedTuple):
    """Neutral element for composition in either family."""

    def __bool__(self) -> bool:  # a tuple of no fields would read as false
        return True


IDENTITY = Identity()
ChannelSpec = Union[AmplitudeDamping, ThermalLoss, Identity]


def family(channel: ChannelSpec) -> str | None:
    """Channel family tag: "ad", "tl", or None for the neutral Identity."""
    if isinstance(channel, AmplitudeDamping):
        return FAMILY_AD
    if isinstance(channel, ThermalLoss):
        return FAMILY_TL
    if isinstance(channel, Identity):
        return None
    raise FamilyError(f"not a channel spec: {channel!r}")


def as_damping(channel: ChannelSpec | FibreParams) -> float:
    """Survival probability eta = 1 - p of an AD-family channel or a fibre (Identity: 1)."""
    if isinstance(channel, AmplitudeDamping):
        return 1.0 - channel.p
    if isinstance(channel, Identity):
        return 1.0
    if isinstance(channel, FibreParams):
        return channel.transmissivity
    raise FamilyError(f"expected an amplitude-damping channel, got {channel!r}")


def as_thermal(channel: ChannelSpec | FibreParams) -> tuple[float, float]:
    """(tau, nbar) of a thermal-family channel or a fibre (Identity: (1, 0))."""
    if isinstance(channel, ThermalLoss):
        return channel.tau, channel.nbar
    if isinstance(channel, Identity):
        return 1.0, 0.0
    if isinstance(channel, FibreParams):
        return channel.transmissivity, channel.nbar_B
    raise FamilyError(f"expected a thermal-loss channel, got {channel!r}")


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
        if not self.length_km >= 0.0:
            raise DomainError(f"fibre length must be >= 0 km, got {self.length_km}")
        if not 0.0 < self.gamma < math.inf:  # an infinite rate makes 10^(-gamma*0) nan
            raise DomainError(f"loss rate must be finite and > 0 per km, got {self.gamma}")
        if not self.nbar_B >= 0.0:
            raise DomainError(f"background photons must be >= 0, got {self.nbar_B}")

    @property
    def transmissivity(self) -> float:
        return fibre_transmissivity(self.gamma, self.length_km)


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


def channel_to_json(channel: ChannelSpec) -> dict:
    if isinstance(channel, AmplitudeDamping):
        return {"kind": "ad", "p": channel.p}
    if isinstance(channel, ThermalLoss):
        return {"kind": "tl", "tau": channel.tau, "nbar": channel.nbar}
    if isinstance(channel, Identity):
        return {"kind": "id"}
    raise FamilyError(f"not a channel spec: {channel!r}")


def _field(data: dict, key: str, default: float | None = None) -> float:
    """``float`` of a channel field; a JSON boolean, which float() reads as 1 or 0, is refused."""
    value = data[key] if default is None else data.get(key, default)
    if value is True or value is False:
        raise DomainError(f"channel field {key!r} must be a number, got {value}")
    return float(value)


def channel_from_json(data: dict) -> ChannelSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError(f"channel object needs a 'kind' tag, got {data!r}")
    kind = data["kind"]
    try:
        if kind == "ad":
            return AmplitudeDamping(_field(data, "p"))
        if kind == "tl":
            return ThermalLoss(_field(data, "tau"), _field(data, "nbar", 0.0))
        if kind == "pl":  # pure loss: thermal loss with no added photons
            return ThermalLoss(_field(data, "eta"))
        if kind == "id":
            return IDENTITY
    except KeyError as exc:
        raise DomainError(f"channel kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"bad channel field in {data!r}: {exc}") from exc
    raise DomainError(f"unknown channel kind {kind!r}")

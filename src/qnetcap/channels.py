"""Channel specifications, fibre parameterization, and chain composition.

Two channel families are modelled. Amplitude damping acts on qubits and is
described by a single damping probability p. Thermal loss acts on bosonic
modes and is described by a transmissivity tau together with the mean photon
number nbar added at the output; pure loss is the nbar = 0 special case, and
the bounds give it its exact formula. ``fibre_transmissivity`` is the one
fibre loss law.

A chain of same-family channels reduces to a single channel of that family:
damping probabilities combine as p_tot = 1 - prod(1 - p_j), and thermal-loss
links combine through the additive-noise recursion implemented in
``compose_tl``. ``as_damping``/``as_thermal`` convert a channel spec to those
family-native numbers and reject a channel of the other family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DomainError, EmptyCompoundError, FamilyError

# Tiny negative nbar totals from rounding are clamped; anything lower is a bug.
NBAR_CLAMP_TOL = 1e-12

FAMILY_AD = "ad"
FAMILY_TL = "tl"


@dataclass(frozen=True)
class AmplitudeDamping:
    """Qubit energy-dissipation channel with damping probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0 or math.isnan(self.p):
            raise DomainError(f"damping probability must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ThermalLoss:
    """Bosonic loss channel: transmissivity tau, output thermal photons nbar."""

    tau: float
    nbar: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0 or math.isnan(self.tau):
            raise DomainError(f"transmissivity must lie in (0, 1], got {self.tau}")
        if self.nbar < 0.0 or math.isnan(self.nbar):
            raise DomainError(f"thermal photon number must be >= 0, got {self.nbar}")


@dataclass(frozen=True)
class Identity:
    """Neutral element for composition in either family."""


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


def as_damping(channel: ChannelSpec) -> float:
    """Damping probability of an AD-family channel (Identity counts as p = 0)."""
    if isinstance(channel, AmplitudeDamping):
        return channel.p
    if isinstance(channel, Identity):
        return 0.0
    raise FamilyError(f"expected an amplitude-damping channel, got {channel!r}")


def as_thermal(channel: ChannelSpec) -> tuple[float, float]:
    """(tau, nbar) of a thermal-family channel (Identity counts as (1, 0))."""
    if isinstance(channel, ThermalLoss):
        return channel.tau, channel.nbar
    if isinstance(channel, Identity):
        return 1.0, 0.0
    raise FamilyError(f"expected a thermal-loss channel, got {channel!r}")


def fibre_transmissivity(gamma: float, length_km: float) -> float:
    """Transmissivity 10^(-gamma*d) of d km of fibre with loss rate gamma."""
    return 10.0 ** (-gamma * length_km)


@dataclass(frozen=True)
class FibreParams:
    """Fibre link of length_km with loss rate gamma (per km, base-10 exponent).

    The background photon number nbar_B is a fixed per-edge constant added at
    the output, independent of the fibre length.
    """

    length_km: float
    gamma: float = 0.02
    nbar_B: float = 0.002

    def __post_init__(self):
        if self.length_km < 0.0 or math.isnan(self.length_km):
            raise DomainError(f"fibre length must be >= 0 km, got {self.length_km}")
        if self.gamma <= 0.0 or math.isnan(self.gamma):
            raise DomainError(f"loss rate must be > 0 per km, got {self.gamma}")
        if self.nbar_B < 0.0 or math.isnan(self.nbar_B):
            raise DomainError(f"background photons must be >= 0, got {self.nbar_B}")

    @property
    def transmissivity(self) -> float:
        return fibre_transmissivity(self.gamma, self.length_km)

    @property
    def damping(self) -> float:
        return 1.0 - self.transmissivity


@dataclass(frozen=True)
class NodeSpec:
    """A network node with internal receive and send channels.

    ``recv`` acts on anything arriving at the node before local processing;
    ``send`` acts on anything leaving it. Both default to Identity (an ideal
    device). ``role`` distinguishes end users from repeaters.
    """

    id: str
    recv: ChannelSpec = Identity()
    send: ChannelSpec = Identity()
    role: str = "repeater"

    def __post_init__(self):
        if self.role not in ("repeater", "user"):
            raise DomainError(f"node role must be 'repeater' or 'user', got {self.role!r}")


def compose_ad(probs: Iterable[float]) -> float:
    """Total damping probability of a chain of damping channels.

    p_tot = 1 - prod_j (1 - p_j); order-independent.
    """
    survive = 1.0
    count = 0
    for p in probs:
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise DomainError(f"damping probability must lie in [0, 1], got {p}")
        survive *= 1.0 - p
        count += 1
    if count == 0:
        raise EmptyCompoundError("compose_ad needs at least one channel")
    return 1.0 - survive


def compose_tl(channels: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Reduce a chain of thermal-loss links to one (tau_tot, nbar_tot) pair.

    Transmissivities multiply. The added noise accumulates through
    xi_j = tau_j * xi_{j-1} + nbar_j + |1 - tau_j| / 2 starting from xi_0 = 0,
    and the compound output photon number is nbar_tot = xi_N - |1 - tau_tot| / 2.
    A chain of pure-loss links stays pure loss: nbar_tot is pinned to 0 rather
    than left to rounding residue. Elsewhere rounding can leave nbar_tot a hair
    below zero; within NBAR_CLAMP_TOL it is clamped to 0, beyond that it is an
    error.
    """
    tau_tot = 1.0
    xi = 0.0
    count = 0
    lossless = True
    for tau, nbar in channels:
        if not 0.0 < tau <= 1.0 or math.isnan(tau):
            raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
        if nbar < 0.0 or math.isnan(nbar):
            raise DomainError(f"thermal photon number must be >= 0, got {nbar}")
        eps = nbar + 0.5 * abs(1.0 - tau)
        xi = tau * xi + eps
        tau_tot *= tau
        lossless = lossless and nbar == 0.0
        count += 1
    if count == 0:
        raise EmptyCompoundError("compose_tl needs at least one channel")
    if lossless:
        return tau_tot, 0.0
    nbar_tot = xi - 0.5 * abs(1.0 - tau_tot)
    if nbar_tot < 0.0:
        if nbar_tot < -NBAR_CLAMP_TOL:
            raise DomainError(f"compound photon number {nbar_tot} below rounding tolerance")
        nbar_tot = 0.0
    return tau_tot, nbar_tot


def fibre_channel(params: FibreParams, fam: str) -> ChannelSpec:
    """Channel presented by a fibre of the given family.

    "ad": AmplitudeDamping(1 - 10^(-gamma*d)).
    "tl": ThermalLoss(10^(-gamma*d), nbar_B).
    """
    if fam == FAMILY_AD:
        return AmplitudeDamping(params.damping)
    if fam == FAMILY_TL:
        return ThermalLoss(params.transmissivity, params.nbar_B)
    raise FamilyError(f"unknown channel family {fam!r}")


def channel_to_json(channel: ChannelSpec) -> dict:
    if isinstance(channel, AmplitudeDamping):
        return {"kind": "ad", "p": channel.p}
    if isinstance(channel, ThermalLoss):
        return {"kind": "tl", "tau": channel.tau, "nbar": channel.nbar}
    if isinstance(channel, Identity):
        return {"kind": "id"}
    raise FamilyError(f"not a channel spec: {channel!r}")


def channel_from_json(data: dict) -> ChannelSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError(f"channel object needs a 'kind' tag, got {data!r}")
    kind = data["kind"]
    try:
        if kind == "ad":
            return AmplitudeDamping(float(data["p"]))
        if kind == "tl":
            return ThermalLoss(float(data["tau"]), float(data.get("nbar", 0.0)))
        if kind == "pl":  # pure loss: thermal loss with no added photons
            return ThermalLoss(float(data["eta"]))
        if kind == "id":
            return Identity()
    except KeyError as exc:
        raise DomainError(f"channel kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"bad channel field in {data!r}: {exc}") from exc
    raise DomainError(f"unknown channel kind {kind!r}")

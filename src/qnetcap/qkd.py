"""Receiver-noise models for coherent-detection CV-QKD setups.

Two local-oscillator schemes are covered. With a transmitted LO (TLO) the
oscillator rides through the same lossy channel as the signal, so electronic
noise referred to the input grows as the channel transmissivity drops. With a
local LO (LLO) the oscillator is generated at the receiver: electronic noise
stays fixed, while residual phase noise scales with the received signal power.

The resulting dimensionless photon numbers feed thermal-loss receiver specs:
the receiver is modelled as ThermalLoss(tau_eff, nbar_r) and the sender side
is taken as ideal.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, checked

SPEED_OF_LIGHT = 299792458.0  # m/s
PLANCK = 6.62607015e-34  # J*s

SCHEME_TLO = "tlo"
SCHEME_LLO = "llo"


@checked
class QkdSetup(NamedTuple):
    """One receiver configuration; defaults follow a realistic 800 nm setup."""

    scheme: str = SCHEME_LLO
    wavelength: float = 800e-9  # m
    tau_eff: float = 0.8  # detector efficiency
    nu_det: int = 2  # shot-noise units: 1 homodyne, 2 heterodyne
    bandwidth: float = 1e8  # detector bandwidth W, Hz
    nep: float = 6e-12  # noise-equivalent power, W/sqrt(Hz)
    p_lo: float = 0.1  # local-oscillator power, W
    linewidth: float = 1600.0  # combined laser linewidth l_W, Hz
    clock: float = 5e6  # symbol clock C, Hz
    dt_lo: float = 1e-8  # LO pulse duration, s
    mu: float = 10.0  # modulation variance, shot-noise units

    def _check(self):
        if self.scheme not in (SCHEME_TLO, SCHEME_LLO):
            raise DomainError(f"scheme must be 'tlo' or 'llo', got {self.scheme!r}")
        values = self._asdict()
        for name, value in values.items():
            if name != "scheme" and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.nu_det not in (1, 2):
            raise DomainError(f"nu_det must be 1 (homodyne) or 2 (heterodyne), got {self.nu_det}")
        for name in ("wavelength", "bandwidth", "p_lo", "clock", "dt_lo"):
            if values[name] <= 0.0:
                raise DomainError(f"{name} must be > 0, got {values[name]}")
        for name in ("nep", "linewidth"):
            if values[name] < 0.0:
                raise DomainError(f"{name} must be >= 0, got {values[name]}")
        if not 0.0 < self.tau_eff <= 1.0:
            raise DomainError(f"tau_eff must lie in (0, 1], got {self.tau_eff}")
        if self.mu < 1.0:
            raise DomainError(f"modulation must be >= 1 shot-noise unit, got {self.mu}")


def theta_ph(setup: QkdSetup) -> float:
    """Residual phase noise pi*(mu-1)*l_W/C, dimensionless."""
    return math.pi * (setup.mu - 1.0) * setup.linewidth / setup.clock


def theta_el(setup: QkdSetup, p_lo_det: float) -> float:
    """Electronic noise nu_det*NEP^2*W*dt_LO / (2*h*nu*P_LO_det), dimensionless.

    ``p_lo_det`` is the LO power actually reaching the detector. The
    denominator must be a positive finite number: a very long wavelength or a
    tiny LO power makes the photon-energy product underflow to 0.
    """
    nu = SPEED_OF_LIGHT / setup.wavelength
    denominator = 2.0 * PLANCK * nu * p_lo_det
    if not 0.0 < denominator < math.inf:
        raise DomainError(
            f"electronic noise needs 2*h*nu*P_LO in (0, inf), got {denominator} "
            f"at wavelength {setup.wavelength} m and detected p_lo {p_lo_det} W"
        )
    try:
        nep_squared = setup.nep**2
    except OverflowError as exc:  # float ** raises where float * gives inf
        raise DomainError(f"electronic noise overflows: nep {setup.nep} W/sqrt(Hz) squared") from exc
    return setup.nu_det * nep_squared * setup.bandwidth * setup.dt_lo / denominator


def receiver_noise(setup: QkdSetup, eta_channel: float) -> float:
    """Receiver-added photon number for a channel of transmissivity eta.

    LLO: eta*tau_eff*theta_ph + theta_el at full LO power.
    TLO: theta_el evaluated at the attenuated LO power eta*tau_eff*P_LO.
    """
    if not 0.0 < eta_channel <= 1.0:
        raise DomainError(f"channel transmissivity must lie in (0, 1], got {eta_channel}")
    if setup.scheme == SCHEME_LLO:
        return eta_channel * setup.tau_eff * theta_ph(setup) + theta_el(setup, setup.p_lo)
    return theta_el(setup, eta_channel * setup.tau_eff * setup.p_lo)


def _preset(scheme: str, nu_det: int) -> QkdSetup:
    return QkdSetup(scheme=scheme, nu_det=nu_det)


PRESETS = {
    "table1-homodyne-llo": _preset(SCHEME_LLO, 1),
    "table1-homodyne-tlo": _preset(SCHEME_TLO, 1),
    "table1-heterodyne-llo": _preset(SCHEME_LLO, 2),
    "table1-heterodyne-tlo": _preset(SCHEME_TLO, 2),
}


def from_preset(name: str) -> QkdSetup:
    if not isinstance(name, str) or name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise DomainError(f"unknown QKD preset {name!r}; known presets: {known}")
    return PRESETS[name]


def with_scheme(setup: QkdSetup, scheme: str) -> QkdSetup:
    """Same hardware, other LO scheme; handy for scheme comparisons."""
    return setup._replace(scheme=scheme)

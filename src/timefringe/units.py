"""Physical constants, the laboratory setup, and photon-absorption
kinematics.

Laboratory quantities live in SI (with the usual eV/nm conveniences); the
simulations run separately in internal units (hbar = M = c = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# CODATA 2018
HBAR_JS = 1.054571817e-34        # J s
C_M_PER_S = 299792458.0          # m/s (exact)
ELECTRON_MASS_KG = 9.1093837015e-31
EV_TO_JOULE = 1.602176634e-19    # exact
ELECTRON_REST_ENERGY_EV = ELECTRON_MASS_KG * C_M_PER_S**2 / EV_TO_JOULE
HC_EV_NM = HBAR_JS * C_M_PER_S * 2.0 * math.pi / (EV_TO_JOULE * 1e-9)

NONRELATIVISTIC = "nonrelativistic"
RELATIVISTIC = "relativistic"
MOMENTUM_MODELS = (NONRELATIVISTIC, RELATIVISTIC)


@dataclass(frozen=True)
class PhysicalSetup:
    """Laboratory parameters of the two-time-gate experiment."""

    wavelength: float = 850.0            # nm
    photon_count: int = 300
    flight_distance_L: float = 0.01      # m
    momentum_model: str = NONRELATIVISTIC

    def __post_init__(self):
        if self.wavelength <= 0:
            raise DomainError("wavelength must be > 0")
        if self.photon_count < 1:
            raise DomainError("photon_count must be >= 1")
        if self.flight_distance_L <= 0:
            raise DomainError("flight_distance_L must be > 0")
        if self.momentum_model not in MOMENTUM_MODELS:
            raise DomainError(f"momentum_model must be one of {MOMENTUM_MODELS}")


def photon_energy(wavelength: float) -> float:
    """Photon energy in eV for a wavelength in nm."""
    if wavelength <= 0:
        raise DomainError("wavelength must be > 0")
    return HC_EV_NM / wavelength


def kinetic_from_photons(n: int, wavelength: float) -> float:
    """Kinetic energy (eV) deposited by absorbing n photons."""
    if n < 1:
        raise DomainError("photon count must be >= 1")
    return n * photon_energy(wavelength)


def momentum_from_kinetic(e_kin: float, model: str = NONRELATIVISTIC) -> float:
    """Electron momentum as cp in eV from the kinetic energy in eV.

    nonrelativistic: cp = sqrt(2 mc^2 E); relativistic: the exact on-shell
    value cp = sqrt((mc^2 + E)^2 - (mc^2)^2). The relativistic value is the
    larger of the two for E > 0.
    """
    if e_kin < 0:
        raise DomainError("kinetic energy must be >= 0")
    mc2 = ELECTRON_REST_ENERGY_EV
    if model == NONRELATIVISTIC:
        return math.sqrt(2.0 * mc2 * e_kin)
    if model == RELATIVISTIC:
        return math.sqrt((mc2 + e_kin) ** 2 - mc2**2)
    raise DomainError(f"unknown momentum model {model!r}")

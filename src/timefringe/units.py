"""Physical constants, lab/internal unit conversion, and photon-absorption
kinematics.

Laboratory quantities live in SI (with the usual eV/nm conveniences);
simulations run in internal units (hbar = M = c = 1 by default) so that
quantities like 1e-30 s^2 never appear in intermediate products.
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
class PhysicalConstants:
    hbar: float = HBAR_JS
    c: float = C_M_PER_S
    electron_mass: float = ELECTRON_MASS_KG
    electron_rest_energy: float = ELECTRON_REST_ENERGY_EV
    ev_to_joule: float = EV_TO_JOULE
    hc: float = HC_EV_NM


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class UnitScales:
    """Meters / seconds / kilograms per internal unit."""

    length_scale: float = 1.0
    time_scale: float = 1.0
    mass_scale: float = 1.0

    def __post_init__(self):
        for name in ("length_scale", "time_scale", "mass_scale"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class PhysicalSetup:
    """Laboratory parameters of the two-time-gate experiment."""

    wavelength: float = 850.0            # nm
    photon_count: int = 300
    flight_distance_L: float = 0.01      # m
    gate_spacing_epsilon: float = 2.8e-15  # s
    gate_width: float = 2.5e-16          # s
    momentum_model: str = NONRELATIVISTIC

    def __post_init__(self):
        if self.wavelength <= 0:
            raise DomainError("wavelength must be > 0")
        if self.photon_count < 1:
            raise DomainError("photon_count must be >= 1")
        if self.flight_distance_L <= 0:
            raise DomainError("flight_distance_L must be > 0")
        if self.gate_spacing_epsilon < 0:
            raise DomainError("gate_spacing_epsilon must be >= 0")
        if self.gate_width <= 0:
            raise DomainError("gate_width must be > 0")
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


@dataclass(frozen=True)
class InternalSetup:
    """PhysicalSetup nondimensionalized by a UnitScales record."""

    wavelength: float
    photon_count: int
    flight_distance_L: float
    gate_spacing_epsilon: float
    gate_width: float
    momentum_model: str


def to_internal(setup: PhysicalSetup, scales: UnitScales) -> InternalSetup:
    return InternalSetup(
        wavelength=setup.wavelength * 1e-9 / scales.length_scale,
        photon_count=setup.photon_count,
        flight_distance_L=setup.flight_distance_L / scales.length_scale,
        gate_spacing_epsilon=setup.gate_spacing_epsilon / scales.time_scale,
        gate_width=setup.gate_width / scales.time_scale,
        momentum_model=setup.momentum_model,
    )


def from_internal(internal: InternalSetup, scales: UnitScales) -> PhysicalSetup:
    return PhysicalSetup(
        wavelength=internal.wavelength * scales.length_scale / 1e-9,
        photon_count=internal.photon_count,
        flight_distance_L=internal.flight_distance_L * scales.length_scale,
        gate_spacing_epsilon=internal.gate_spacing_epsilon * scales.time_scale,
        gate_width=internal.gate_width * scales.time_scale,
        momentum_model=internal.momentum_model,
    )

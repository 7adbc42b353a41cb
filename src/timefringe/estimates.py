"""Closed-form predictions for the two-time-gate fringe product epsilon*T,
independent of any simulation.

Two chains are provided: the covariant diffraction formula
epsilon*T = 2 pi hbar L / (<p> c^2) and the crude nonrelativistic
power-series estimate (pi hbar / 2) sqrt(m/2) L E_kin^(-3/2). The published
companion numbers are reproduced to within their own slop: the quoted
momentum value 1.21e3 eV is inconsistent with its stated kinematic chain
(only the derived cp ~ 2.1e4 eV reproduces the 6.9e-30 s^2 product), and the
crude formula evaluates to ~1.9e-27 s^2 rather than the quoted 9e-28 s^2.
Both sides of each discrepancy are computed and reported, never forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .units import (C_M_PER_S, ELECTRON_MASS_KG, EV_TO_JOULE, HBAR_JS,
                    SETUP_FIELDS, PhysicalSetup, kinetic_from_photons,
                    momentum_from_kinetic, photon_energy)

STUECKELBERG_EQ = "stueckelberg_diffraction"
CRUDE_EQ = "crude_nonrelativistic"

# momentum value quoted alongside the published product; kept for the
# side-by-side report of the inconsistency
QUOTED_CP_EV = 1.21e3


@dataclass(frozen=True)
class EstimateReport:
    epsilon_T_product: float   # s^2
    equal_spacing_T: float     # s, sqrt of the product
    inputs_echo: dict
    formula: str


def stueckelberg_product(L: float, cp_ev: float) -> float:
    """epsilon*T = 2 pi hbar L / (p c^2) in s^2, for cp in eV and L in m."""
    if L <= 0 or cp_ev <= 0:
        raise DomainError("L and cp must be > 0")
    p_si = cp_ev * EV_TO_JOULE / C_M_PER_S
    return 2.0 * math.pi * HBAR_JS * L / (p_si * C_M_PER_S**2)


def crude_nonrelativistic_product(L: float, e_kin_ev: float) -> float:
    """(pi hbar / 2) sqrt(m/2) L E_kin^(-3/2) in s^2, for E_kin in eV."""
    if L <= 0 or e_kin_ev <= 0:
        raise DomainError("L and E_kin must be > 0")
    e_kin_j = e_kin_ev * EV_TO_JOULE
    return (math.pi * HBAR_JS / 2.0 * math.sqrt(ELECTRON_MASS_KG / 2.0)
            * L * e_kin_j ** -1.5)


def _report(product: float, setup: PhysicalSetup, formula: str,
            extra: dict) -> EstimateReport:
    echo = {key: getattr(setup, name) for key, name in SETUP_FIELDS.items()}
    echo.update(extra)
    return EstimateReport(epsilon_T_product=product,
                          equal_spacing_T=math.sqrt(product),
                          inputs_echo=echo, formula=formula)


def _in_range(name: str, value: float, setup: PhysicalSetup) -> float:
    """value, if it is a positive finite float; else a DomainError naming
    the setup keys it was derived from."""
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"{name} = {value:g} leaves the float range for "
            f"setup.wavelength_nm = {setup.wavelength:g}, setup.photon_count"
            f" = {setup.photon_count:g}, setup.flight_distance_m = "
            f"{setup.flight_distance_L:g}")
    return value


def compare_estimates(setup: PhysicalSetup) -> dict:
    """Run the full chain wavelength -> photon energy -> kinetic energy ->
    momentum -> both fringe products; returns both reports and their ratio.

    The report also carries the product computed from the quoted momentum
    value so the kinematic inconsistency stays visible.
    """
    e_photon = _in_range("photon energy (eV)",
                         photon_energy(setup.wavelength), setup)
    e_kin = _in_range("kinetic energy (eV)",
                      kinetic_from_photons(setup.photon_count,
                                           setup.wavelength), setup)
    cp = momentum_from_kinetic(e_kin, setup.momentum_model)
    chain = {"photon_energy_ev": e_photon, "kinetic_energy_ev": e_kin,
             "cp_ev": cp}

    covariant = _report(
        _in_range("covariant eps*T (s^2)",
                  stueckelberg_product(setup.flight_distance_L, cp), setup),
        setup, STUECKELBERG_EQ, chain)
    try:  # E_kin^(-3/2) raises rather than giving inf
        crude_product = crude_nonrelativistic_product(setup.flight_distance_L,
                                                      e_kin)
    except OverflowError:
        crude_product = math.inf
    crude = _report(_in_range("crude eps*T (s^2)", crude_product, setup),
                    setup, CRUDE_EQ, chain)
    return {
        "crude": crude,
        "covariant": covariant,
        "ratio": crude.epsilon_T_product / covariant.epsilon_T_product,
        "quoted_cp_ev": QUOTED_CP_EV,
        "covariant_product_from_quoted_cp": stueckelberg_product(
            setup.flight_distance_L, QUOTED_CP_EV),
    }

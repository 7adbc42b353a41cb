"""Point evaluation of the free propagation kernels.

All three kernels are pure-phase Gaussians built from one per-axis factor

    sqrt(mu / (2 pi i hbar s)) * exp(i mu u^2 / (2 hbar s))

with mu the effective mass of the axis: m (or M) for a spatial axis and
-M c^2 for the time axis of the covariant kernel. The principal complex
square root fixes the branch; it is pinned by the identity-limit and
composition tests, and gives K(-s) = conj(K(s)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularKernel


@dataclass(frozen=True)
class FloquetKernelSample:
    """Delta-factored covariant kernel: spatial factor times delta(t'-t+s).

    The source time is t - time_shift; the delta constraint is handled
    analytically and never sampled on a grid.
    """

    time_shift: float
    spatial_part: complex


def _check_dim(d: int) -> None:
    if d not in (1, 2, 3):
        raise DomainError(f"spatial dimension must be 1, 2 or 3, got {d}")


def axis_prefactor(mu: float, s, hbar: float = 1.0):
    """Per-axis normalization sqrt(mu/(2 pi i hbar s)), principal branch."""
    return np.sqrt(mu / (2j * np.pi * hbar * np.asarray(s, dtype=complex)))


def schrodinger_kernel(dx, t, mass: float, d: int = 1, hbar: float = 1.0):
    """Free nonrelativistic propagator at displacement dx, elapsed time t.

    dx is the Euclidean displacement magnitude; d is the spatial dimension
    (the prefactor carries one half-power per axis).
    """
    _check_dim(d)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr == 0.0):
        raise SingularKernel("schrodinger_kernel is singular at t = 0")
    dx = np.asarray(dx, dtype=float)
    pref = axis_prefactor(mass, t_arr, hbar) ** d
    return pref * np.exp(1j * mass * dx**2 / (2.0 * hbar * t_arr))


def floquet_kernel(dx, dt, s, mass: float, d: int = 1,
                   hbar: float = 1.0) -> FloquetKernelSample:
    """Kernel of the E + H evolution for free H: a rigid time shift by s
    times the spatial free propagator evaluated at elapsed time s."""
    _check_dim(d)
    if s == 0.0:
        raise SingularKernel("floquet_kernel is singular at s = 0")
    return FloquetKernelSample(
        time_shift=s,
        spatial_part=schrodinger_kernel(dx, s, mass, d, hbar),
    )


def stueckelberg_kernel(dx, dt, s, M: float, d: int = 1, c: float = 1.0,
                        hbar: float = 1.0):
    """Covariant kernel: Gaussian in the invariant interval dx^2 - c^2 dt^2.

    One spatial half-power per axis plus one time-axis half-power with
    effective mass -M c^2. For d = 3 and c = 1 the prefactor modulus is
    (M / (2 pi hbar |s|))^2.
    """
    _check_dim(d)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr == 0.0):
        raise SingularKernel("stueckelberg_kernel is singular at s = 0")
    dx = np.asarray(dx, dtype=float)
    dt = np.asarray(dt, dtype=float)
    pref = (axis_prefactor(M, s_arr, hbar) ** d
            * axis_prefactor(-M * c * c, s_arr, hbar))
    interval = dx**2 - (c * dt) ** 2
    return pref * np.exp(1j * M * interval / (2.0 * hbar * s_arr))


def kernel_identity_limit(kind: str, mass: float = 1.0, width: float = 1.0,
                          c: float = 1.0, hbar: float = 1.0,
                          s_values=None) -> dict:
    """Regularized identity check: propagate a resting Gaussian by shrinking
    s and report the L2 deviation from the input and its convergence rate.

    Uses the closed-form propagated Gaussian, so the report is exact up to
    quadrature on the comparison grid.
    """
    from .propagation import gaussian_component, propagate_component

    if s_values is None:
        tau0 = width**2 * mass / hbar
        s_values = [tau0 * 1e-3 / (2**k) for k in range(4)]
    if any(s == 0.0 for s in s_values):
        raise SingularKernel("identity limit requested at s = 0")

    mu = mass if kind in ("schrodinger", "floquet") else -mass * c * c
    comp0 = gaussian_component(center=0.0, width=width, wavenumber=0.0)
    u = np.linspace(-8.0 * width, 8.0 * width, 2001)
    f0 = comp0(u)
    ref = np.sqrt(np.trapezoid(np.abs(f0) ** 2, u))

    deviations = []
    for s in s_values:
        fs = propagate_component(comp0, mu, s, hbar)(u)
        deviations.append(np.sqrt(np.trapezoid(np.abs(fs - f0) ** 2, u)) / ref)
    rates = [deviations[i] / deviations[i + 1]
             for i in range(len(deviations) - 1)]
    return {
        "s_values": list(s_values),
        "l2_deviation": deviations,
        "halving_ratios": rates,  # ~2 for first-order convergence
    }

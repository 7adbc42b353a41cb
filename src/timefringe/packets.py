"""Space-time wave packets: a spatial Gaussian times a sum of time gates
times a plane-wave carrier exp(i (p0 x - E0 t)), in internal units
hbar = M = c = 1.

Width conventions: the "width" of every Gaussian envelope is the standard
deviation of the amplitude; the intensity standard deviation is width/sqrt(2).
The carrier sign makes both drift slopes (dx/ds = p0/M, dt/ds = E0/Mc^2)
come out positive for positive p0, E0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError

GAUSSIAN = "gaussian"
RECTANGULAR = "rectangular"
GATE_PROFILES = (GAUSSIAN, RECTANGULAR)


@dataclass(frozen=True)
class GaussianSpatialPacket:
    center_x: float = 0.0
    width_sigma_x: float = 1.0
    mean_momentum_p0: float = 0.0

    def __post_init__(self):
        if self.width_sigma_x <= 0:
            raise DomainError("width_sigma_x must be > 0")

    def amplitude(self, x):
        """L2-normalized amplitude, carrier included."""
        x = np.asarray(x, dtype=float)
        w = self.width_sigma_x
        norm = (math.pi * w * w) ** -0.25
        env = np.exp(-((x - self.center_x) ** 2) / (2.0 * w * w))
        carrier = np.exp(1j * (self.mean_momentum_p0 * x))
        return norm * env * carrier


@dataclass(frozen=True)
class TimeGate:
    center_t: float = 0.0
    width_delta_t: float = 1.0
    profile: str = GAUSSIAN
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.width_delta_t <= 0:
            raise DomainError("width_delta_t must be > 0")
        if self.profile not in GATE_PROFILES:
            raise DomainError(f"gate profile must be one of {GATE_PROFILES}")

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        w = self.width_delta_t
        if self.profile == GAUSSIAN:
            return self.amplitude * np.exp(-((t - self.center_t) ** 2)
                                           / (2.0 * w * w))
        half = 0.5 * w
        inside = (np.abs(t - self.center_t) <= half).astype(float)
        return self.amplitude * inside


@dataclass(frozen=True)
class SpacetimePacket:
    spatial: GaussianSpatialPacket = field(default_factory=GaussianSpatialPacket)
    gates: tuple = (TimeGate(),)
    mean_energy_E0: float = 0.0

    def __post_init__(self):
        if len(self.gates) < 1:
            raise DomainError("SpacetimePacket needs at least one gate")

    def gate_terms(self, t) -> list:
        """Each gate's envelope times the carrier; they sum to gate_sum."""
        t = np.asarray(t, dtype=float)
        carrier = np.exp(-1j * self.mean_energy_E0 * t)
        return [g.envelope(t) * carrier for g in self.gates]

    def gate_sum(self, t):
        return sum(self.gate_terms(t))

    def temporal_norm2(self) -> float:
        """Closed-form integral of |sum of gate envelopes|^2 over t."""
        total = 0.0
        for gj in self.gates:
            for gk in self.gates:
                total += (gj.amplitude * np.conj(gk.amplitude)
                          * _pair_overlap(gj, gk)).real
        return float(total)

    def normalized(self) -> "SpacetimePacket":
        """Rescale gate amplitudes so the space-time L2 norm is 1 (the
        spatial factor is already normalized)."""
        n2 = self.temporal_norm2()
        if n2 <= 0:
            raise DomainError("packet has zero norm")
        if not math.isfinite(n2):
            raise DomainError(f"packet norm^2 is {n2}, not finite")
        scale = 1.0 / math.sqrt(n2)
        gates = tuple(replace(g, amplitude=g.amplitude * scale)
                      for g in self.gates)
        return replace(self, gates=gates)


def _pair_overlap(gj: TimeGate, gk: TimeGate) -> float:
    """Integral of the product of two unit-amplitude gate envelopes."""
    if gj.profile == GAUSSIAN and gk.profile == GAUSSIAN:
        wj2, wk2 = gj.width_delta_t**2, gk.width_delta_t**2
        a = 0.5 / wj2 + 0.5 / wk2
        d2 = (gj.center_t - gk.center_t) ** 2
        return math.sqrt(math.pi / a) * math.exp(-d2 / (2.0 * (wj2 + wk2)))
    if gj.profile == RECTANGULAR and gk.profile == RECTANGULAR:
        lo = max(gj.center_t - 0.5 * gj.width_delta_t,
                 gk.center_t - 0.5 * gk.width_delta_t)
        hi = min(gj.center_t + 0.5 * gj.width_delta_t,
                 gk.center_t + 0.5 * gk.width_delta_t)
        return max(hi - lo, 0.0)
    gauss, rect = (gj, gk) if gj.profile == GAUSSIAN else (gk, gj)
    scale = math.sqrt(2.0) * gauss.width_delta_t
    hi = (rect.center_t + 0.5 * rect.width_delta_t - gauss.center_t) / scale
    lo = (rect.center_t - 0.5 * rect.width_delta_t - gauss.center_t) / scale
    return 0.5 * math.sqrt(math.pi) * scale * (math.erf(hi) - math.erf(lo))


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """The n uniform samples of [lo, hi], read-only: a grid computes each
    axis once and hands the same array to every caller."""
    axis = np.linspace(lo, hi, n)
    axis.flags.writeable = False
    return axis


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 2 or self.x_max <= self.x_min:
            raise DomainError("Grid1D needs n_x >= 2 and x_max > x_min")

    @cached_property
    def x(self) -> np.ndarray:
        return _axis(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)


@dataclass(frozen=True)
class Grid2D:
    x_min: float
    x_max: float
    n_x: int
    t_min: float
    t_max: float
    n_t: int

    def __post_init__(self):
        if self.n_x < 2 or self.n_t < 2:
            raise DomainError("Grid2D needs n_x, n_t >= 2")
        if self.x_max <= self.x_min or self.t_max <= self.t_min:
            raise DomainError("Grid2D needs max > min on both axes")

    @cached_property
    def x(self) -> np.ndarray:
        return _axis(self.x_min, self.x_max, self.n_x)

    @cached_property
    def t(self) -> np.ndarray:
        return _axis(self.t_min, self.t_max, self.n_t)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)

"""Space-time wave packets: a spatial Gaussian times a sum of time gates
times a plane-wave carrier exp(i (p0 x - E0 t) / hbar).

Width conventions: the "width" of every Gaussian envelope is the standard
deviation of the amplitude; the intensity standard deviation is width/sqrt(2).
The carrier sign makes both drift slopes (dx/ds = p0/M, dt/ds = E0/Mc^2)
come out positive for positive p0, E0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .numerics import integrate_1d, simpson_weights

GAUSSIAN = "gaussian"
RECTANGULAR = "rectangular"
GATE_PROFILES = (GAUSSIAN, RECTANGULAR)


@dataclass(frozen=True)
class GaussianSpatialPacket:
    center_x: float = 0.0
    width_sigma_x: float = 1.0
    mean_momentum_p0: float = 0.0
    global_phase: float = 0.0

    def __post_init__(self):
        if self.width_sigma_x <= 0:
            raise DomainError("width_sigma_x must be > 0")

    def amplitude(self, x, hbar: float = 1.0):
        """L2-normalized amplitude, carrier included."""
        x = np.asarray(x, dtype=float)
        w = self.width_sigma_x
        norm = (math.pi * w * w) ** -0.25
        env = np.exp(-((x - self.center_x) ** 2) / (2.0 * w * w))
        carrier = np.exp(1j * (self.mean_momentum_p0 * x / hbar
                               + self.global_phase))
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

    def gate_terms(self, t, hbar: float = 1.0) -> list:
        """Each gate's envelope times the carrier; they sum to gate_sum."""
        t = np.asarray(t, dtype=float)
        carrier = np.exp(-1j * self.mean_energy_E0 * t / hbar)
        return [g.envelope(t) * carrier for g in self.gates]

    def gate_sum(self, t, hbar: float = 1.0):
        return sum(self.gate_terms(t, hbar))

    def temporal_norm2(self) -> float:
        """Closed-form (Gaussian) or fine-quadrature (rectangular) value of
        the integral of |sum of gate envelopes|^2 over t."""
        if all(g.profile == GAUSSIAN for g in self.gates):
            total = 0.0
            for gj in self.gates:
                for gk in self.gates:
                    total += (gj.amplitude * np.conj(gk.amplitude)
                              * _gaussian_pair_overlap(gj, gk)).real
            return float(total)
        lo = min(g.center_t - 6.0 * g.width_delta_t for g in self.gates)
        hi = max(g.center_t + 6.0 * g.width_delta_t for g in self.gates)
        t = np.linspace(lo, hi, 20001)
        env = np.zeros_like(t, dtype=complex)
        for g in self.gates:
            env = env + g.envelope(t)
        return integrate_1d(np.abs(env) ** 2, t[1] - t[0])

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


def _gaussian_pair_overlap(gj: TimeGate, gk: TimeGate) -> float:
    """Integral of exp(-(t-tj)^2/2wj^2) exp(-(t-tk)^2/2wk^2) dt."""
    wj2, wk2 = gj.width_delta_t**2, gk.width_delta_t**2
    a = 0.5 / wj2 + 0.5 / wk2
    d2 = (gj.center_t - gk.center_t) ** 2
    return math.sqrt(math.pi / a) * math.exp(-d2 / (2.0 * (wj2 + wk2)))


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 2 or self.x_max <= self.x_min:
            raise DomainError("Grid1D needs n_x >= 2 and x_max > x_min")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

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

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_t)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)


@dataclass(frozen=True)
class Moments:
    mean_x: float
    mean_t: float
    mean_p: float
    mean_E: float
    sigma_x: float
    sigma_t: float


def expectations(field: np.ndarray, grid: Grid2D,
                 hbar: float = 1.0) -> Moments:
    """First and second moments of |psi|^2 plus derivative-based mean
    momentum / energy of a field sampled on the grid."""
    intensity = np.abs(field) ** 2
    wx = simpson_weights(grid.n_x, grid.dx)
    wt = simpson_weights(grid.n_t, grid.dt)
    n2 = float(wx @ intensity @ wt)
    if n2 <= 0:
        raise DomainError("zero-norm field has no expectation values")
    x, t = grid.x, grid.t

    mean_x = float((wx * x) @ intensity @ wt) / n2
    mean_t = float(wx @ intensity @ (wt * t)) / n2
    var_x = float((wx * (x - mean_x) ** 2) @ intensity @ wt) / n2
    var_t = float(wx @ intensity @ (wt * (t - mean_t) ** 2)) / n2

    dpsi_dx = np.gradient(field, grid.dx, axis=0)
    dpsi_dt = np.gradient(field, grid.dt, axis=1)
    mean_p = float((wx @ (np.conj(field) * (-1j * hbar) * dpsi_dx) @ wt).real) / n2
    mean_e = float((wx @ (np.conj(field) * (1j * hbar) * dpsi_dt) @ wt).real) / n2

    return Moments(mean_x=mean_x, mean_t=mean_t, mean_p=mean_p, mean_E=mean_e,
                   sigma_x=math.sqrt(max(var_x, 0.0)),
                   sigma_t=math.sqrt(max(var_t, 0.0)))

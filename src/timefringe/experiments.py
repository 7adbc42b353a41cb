"""The two-time-gate experiment under each propagation framework, the
mixed-state control, and fringe extraction.

Two visibility notions coexist here. FringeReport.visibility is the
window contrast (Imax - Imin)/(Imax + Imin) over the central envelope
window. The theory discriminator instead uses the interference visibility,
max|I_coherent - I_incoherent| / max(I_incoherent): the normalized cross
term. The latter is exactly zero for the mixed-state control by
construction, vanishes for non-overlapping gates under the time-shift
(Floquet-type) evolution, and is of order one for the covariant evolution.
Window contrast alone cannot make that three-way distinction because a
smooth two-bump envelope also has high contrast.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NoFringes, OverlapWarning, ResolutionError
from .packets import (GAUSSIAN, GATE_PROFILES, GaussianSpatialPacket,
                      SpacetimePacket, TimeGate)
from .propagation import (CLOSED_FORM, ENGINES, SCHRODINGER, STUECKELBERG,
                          THEORIES, auto_output_grid, propagate_component,
                          propagate_spacetime, spatial_component)
# perfbench/tracing.py wraps these two by name in this module.
from .propagation import propagate_floquet, propagate_stueckelberg  # noqa

MIN_SAMPLES_PER_FRINGE = 8  # below this the peak spacing is off by percents


@dataclass(frozen=True)
class TwoGateConfig:
    """Desk-scale two-gate scenario in internal units (hbar = M = c = 1).

    Defaults give a mean velocity 0.2 c, a flight parameter s* = M L / p0,
    and a gate spacing wide enough that eight-odd fringes fit inside the
    +-1.5 sigma central window of the arrival envelope.
    """

    flight_distance: float = 2.0
    gate_spacing: float = 12.0
    gate_width: float = 0.5
    gate_profile: str = GAUSSIAN
    spatial_width: float = 5.0
    spatial_center: float = 0.0
    momentum: float = 0.2
    carrier_energy: float | None = None   # None: M c^2 + p^2 / 2M
    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    s_override: float | None = None       # None: s* = M L / p0
    detector_x: float | None = None       # None: flight_distance
    engine: str = CLOSED_FORM
    n_x: int | None = None
    n_t: int | None = None

    def __post_init__(self):
        if self.flight_distance <= 0:
            raise DomainError("flight_distance must be > 0")
        if self.momentum <= 0:
            raise DomainError("momentum must be > 0")
        if self.gate_spacing < 0:
            raise DomainError("gate_spacing must be >= 0")
        if self.gate_width <= 0:
            raise DomainError("gate_width must be > 0")
        if self.gate_profile not in GATE_PROFILES:
            raise DomainError(f"gate_profile must be one of {GATE_PROFILES}")
        if self.engine not in ENGINES:
            raise DomainError(f"engine must be one of {ENGINES}")

    @property
    def s_star(self) -> float:
        if self.s_override is not None:
            return self.s_override
        return self.mass * self.flight_distance / self.momentum

    @property
    def carrier(self) -> float:
        if self.carrier_energy is not None:
            return self.carrier_energy
        return (self.mass * self.c**2
                + self.momentum**2 / (2.0 * self.mass))

    @property
    def detector(self) -> float:
        return (self.detector_x if self.detector_x is not None
                else self.flight_distance)

    def predicted_spacing(self) -> float:
        """Fringe period from the covariant diffraction law
        T = 2 pi hbar L / (<p> c^2 epsilon)."""
        if self.gate_spacing == 0:
            raise DomainError("no fringe prediction for zero gate spacing")
        return (2.0 * math.pi * self.hbar * self.flight_distance
                / (self.momentum * self.c**2 * self.gate_spacing))


DESK_SCALE = TwoGateConfig()


def build_packet(cfg: TwoGateConfig) -> SpacetimePacket:
    if not 0.0 < cfg.gate_width * cfg.gate_width < math.inf:
        raise DomainError(f"gate_width = {cfg.gate_width:g}: its square "
                          "leaves the float range")
    spatial = GaussianSpatialPacket(center_x=cfg.spatial_center,
                                    width_sigma_x=cfg.spatial_width,
                                    mean_momentum_p0=cfg.momentum)
    gates = (TimeGate(center_t=0.0, width_delta_t=cfg.gate_width,
                      profile=cfg.gate_profile),
             TimeGate(center_t=cfg.gate_spacing, width_delta_t=cfg.gate_width,
                      profile=cfg.gate_profile))
    return SpacetimePacket(spatial=spatial, gates=gates,
                           mean_energy_E0=cfg.carrier).normalized()


@dataclass(frozen=True)
class IntensityTrace:
    times: np.ndarray
    intensity: np.ndarray
    detector_x: float
    theory: str

    def __post_init__(self):
        if len(self.times) != len(self.intensity):
            raise DomainError("times and intensity lengths differ")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")
        if np.any(self.intensity < 0):
            raise DomainError("intensity must be non-negative")


@dataclass(frozen=True)
class FringeReport:
    peak_times: list
    spacing_T: float
    spacing_T_predicted: float | None
    visibility: float
    relative_error: float | None


@dataclass(frozen=True)
class TwoGateOutcome:
    trace: IntensityTrace
    incoherent_trace: IntensityTrace
    interference_visibility: float
    norm_drift: float
    s_elapsed: float
    predicted_spacing: float | None


def _schrodinger_control_traces(cfg: TwoGateConfig):
    """Each gate's pulse propagated separately; intensities added.

    There is no joint amplitude: standard evolution carries no mechanism
    for coherence between emissions at different times, so the output is a
    mixed state and the cross term is absent by construction.
    """
    spatial = GaussianSpatialPacket(center_x=cfg.spatial_center,
                                    width_sigma_x=cfg.spatial_width,
                                    mean_momentum_p0=cfg.momentum)
    comp0 = spatial_component(spatial, cfg.hbar)
    t_flight = cfg.mass * cfg.flight_distance / cfg.momentum

    spread = propagate_component(comp0, cfg.mass, t_flight, cfg.hbar)
    sigma_arrival = (spread.intensity_sigma * cfg.mass / cfg.momentum)
    center = t_flight + 0.5 * cfg.gate_spacing
    half = 4.0 * sigma_arrival + cfg.gate_spacing
    n_t = cfg.n_t or 2049
    times = np.linspace(center - half, center + half, n_t)

    # one row per gate: each pulse reaches the detector after it opens
    elapsed = times - np.array([[0.0], [cfg.gate_spacing]])
    later = elapsed > 0
    comp = propagate_component(comp0, cfg.mass, elapsed[later], cfg.hbar)
    pulses = np.zeros(elapsed.shape)
    pulses[later] = 0.5 * np.abs(comp(cfg.detector)) ** 2
    trace = IntensityTrace(times=times, intensity=pulses[0] + pulses[1],
                           detector_x=cfg.detector, theory=SCHRODINGER)
    return trace, trace


def two_gate_run(theory: str, cfg: TwoGateConfig = DESK_SCALE) -> TwoGateOutcome:
    """Propagate the two-gate packet to the detector under one theory and
    return the detector-time trace plus its incoherent reference."""
    if theory not in THEORIES:
        raise DomainError(f"theory must be one of {THEORIES}")
    if 0 < cfg.gate_spacing < cfg.gate_width:
        warnings.warn("gates are wider than their spacing: overlapping-gate "
                      "regime", OverlapWarning, stacklevel=2)
    s = cfg.s_star
    if not math.isfinite(s):
        raise DomainError(
            f"s* = M L / p overflows for flight_distance = "
            f"{cfg.flight_distance:g} and momentum = {cfg.momentum:g}")

    if theory == SCHRODINGER:
        trace, inc = _schrodinger_control_traces(cfg)
        return TwoGateOutcome(trace=trace, incoherent_trace=inc,
                              interference_visibility=0.0, norm_drift=0.0,
                              s_elapsed=s, predicted_spacing=None)

    packet = build_packet(cfg)
    grid = auto_output_grid(packet, theory, s, cfg.mass, cfg.c, cfg.hbar,
                            n_x=cfg.n_x, n_t=cfg.n_t)
    if not grid.x_min <= cfg.detector <= grid.x_max:
        raise DomainError(
            f"detector_x = {cfg.detector:g} lies outside the x grid "
            f"[{grid.x_min:g}, {grid.x_max:g}]")
    predicted = (cfg.predicted_spacing() if theory == STUECKELBERG
                 and cfg.gate_spacing > 0 else None)
    if predicted is not None and predicted < MIN_SAMPLES_PER_FRINGE * grid.dt:
        span = grid.t_max - grid.t_min
        need = int(math.ceil(MIN_SAMPLES_PER_FRINGE * span / predicted)) + 1
        raise ResolutionError(
            f"t grid gives {predicted / grid.dt:.2f} samples per predicted "
            f"fringe (< {MIN_SAMPLES_PER_FRINGE}); need n_t >= {need}",
            required_n_t=need)
    result = propagate_spacetime(packet, theory, s, cfg.engine, grid=grid,
                                 mass=cfg.mass, c=cfg.c, hbar=cfg.hbar)
    # the field is X(x) sum_k T_k(t); the incoherent reference drops the
    # cross terms between gates
    ix = int(np.argmin(np.abs(grid.x - cfg.detector)))
    x_d = result.spatial[ix]
    intensity = np.abs(x_d * sum(result.temporal)) ** 2
    inc_intensity = sum(np.abs(x_d * tk) ** 2 for tk in result.temporal)

    peak_inc = float(np.max(inc_intensity))
    cross = float(np.max(np.abs(intensity - inc_intensity)))
    visibility = cross / peak_inc if peak_inc > 0 else 0.0

    times = grid.t
    trace = IntensityTrace(times=times, intensity=intensity,
                           detector_x=float(grid.x[ix]), theory=theory)
    inc_trace = IntensityTrace(times=times, intensity=inc_intensity,
                               detector_x=float(grid.x[ix]), theory=theory)
    return TwoGateOutcome(trace=trace, incoherent_trace=inc_trace,
                          interference_visibility=visibility,
                          norm_drift=result.norm_drift, s_elapsed=s,
                          predicted_spacing=predicted)


def _refine_peak(times, intensity, i: int) -> float:
    denom = intensity[i - 1] - 2.0 * intensity[i] + intensity[i + 1]
    if denom >= 0:
        return float(times[i])
    shift = 0.5 * (intensity[i - 1] - intensity[i + 1]) / denom
    return float(times[i] + shift * (times[i + 1] - times[i]))


def extract_fringes(trace: IntensityTrace, threshold_fraction: float = 0.1,
                    predicted_spacing: float | None = None) -> FringeReport:
    """Peak positions, fringe spacing and contrast inside the central
    envelope window |t - <t>| <= 1.5 sigma_t of the trace."""
    if len(trace.times) == 0:
        raise DomainError("empty trace")
    if not 0.0 < threshold_fraction < 1.0:
        raise DomainError("threshold_fraction must be in (0, 1)")
    t = np.asarray(trace.times, dtype=float)
    y = np.asarray(trace.intensity, dtype=float)
    total = float(np.sum(y))
    if total <= 0:
        raise NoFringes("trace carries no intensity")
    mean_t = float(np.sum(t * y) / total)
    sigma_t = math.sqrt(max(float(np.sum((t - mean_t) ** 2 * y) / total), 0.0))
    window = np.abs(t - mean_t) <= 1.5 * sigma_t
    if sigma_t == 0.0 or np.count_nonzero(window) < 3:
        raise NoFringes("central window too narrow for peak analysis")
    idx = np.flatnonzero(window)
    lo, hi = idx[0], idx[-1]
    w_max = float(np.max(y[lo:hi + 1]))
    w_min = float(np.min(y[lo:hi + 1]))
    threshold = threshold_fraction * w_max

    peaks = []
    for i in range(max(lo, 1), min(hi, len(y) - 2) + 1):
        # leftmost sample of a plateau counts as the peak
        if y[i] > y[i - 1] and y[i] >= y[i + 1] and y[i] >= threshold:
            peaks.append(_refine_peak(t, y, i))
    if len(peaks) < 2:
        raise NoFringes(f"found {len(peaks)} peak(s); need at least 2")

    spacing = float(np.median(np.diff(peaks)))
    visibility = (w_max - w_min) / (w_max + w_min)
    rel = (abs(spacing - predicted_spacing) / predicted_spacing
           if predicted_spacing else None)
    return FringeReport(peak_times=peaks, spacing_T=spacing,
                        spacing_T_predicted=predicted_spacing,
                        visibility=visibility, relative_error=rel)


SCAN_PARAMS = ("gate_spacing", "flight_distance")


@dataclass(frozen=True)
class ScanRow:
    value: float
    visibility: float
    spacing_T: float | None
    error: str | None


def visibility_scan(theory: str, cfg: TwoGateConfig, values,
                    threshold_fraction: float = 0.1, workers: int = 1,
                    param: str = "gate_spacing") -> list:
    """Two-gate run and fringe extraction per value of the config field
    param; per-row failures are recorded in the row and the scan continues.
    Rows come back in input order regardless of worker count."""
    if param not in SCAN_PARAMS:
        raise DomainError(f"scan param must be one of {SCAN_PARAMS}")
    values = list(values)
    if len(values) < 2:
        raise DomainError("scan needs at least 2 values")

    def one(value: float) -> ScanRow:
        try:
            outcome = two_gate_run(theory, replace(cfg, **{param: value}))
            spacing = None
            err = None
            try:
                spacing = extract_fringes(outcome.trace, threshold_fraction,
                                          outcome.predicted_spacing).spacing_T
            except NoFringes as exc:
                err = f"NoFringes: {exc}"
            return ScanRow(value=value,
                           visibility=outcome.interference_visibility,
                           spacing_T=spacing, error=err)
        except Exception as exc:  # per-row isolation, scan continues
            return ScanRow(value=value, visibility=float("nan"),
                           spacing_T=None, error=f"{type(exc).__name__}: {exc}")

    if workers <= 1:
        return [one(v) for v in values]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, values))

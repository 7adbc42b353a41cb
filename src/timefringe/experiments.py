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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, NoFringes, OverlapWarning
from .packets import (GAUSSIAN, GATE_PROFILES, GaussianSpatialPacket,
                      SpacetimePacket, TimeGate)
from .propagation import (CLOSED_FORM, ENGINES, SCHRODINGER, STUECKELBERG,
                          THEORIES, axis_samples, component_overlap,
                          propagate_component, read_field, spatial_component)
# perfbench/tracing.py wraps these by name in this module; two_gate_run
# calls none of them.
from .propagation import (auto_output_grid, propagate_floquet,  # noqa
                          propagate_stueckelberg)

# below this covariant interference visibility the peaks of a trace may be
# the two gate envelopes, not fringes: at L = 1.5, eps = 72 (V = 0.0063)
# their spacing is 34 times the law's. Over L in {1.5, 2, 4} and eps in
# 24..192, every case with V >= 0.024 is within 0.21 % of the law.
MIN_INTERFERENCE_VISIBILITY = 0.05
# a peak counts where the trace reaches this fraction of its window maximum
THRESHOLD_FRACTION = 0.1


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
    s_elapsed: float | None = None        # None: s* = M L / p0
    detector_x: float | None = None       # None: flight_distance
    engine: str = CLOSED_FORM

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
        if self.s_elapsed is not None:
            return self.s_elapsed
        return self.flight_distance / self.momentum

    @property
    def carrier(self) -> float:
        if self.carrier_energy is not None:
            return self.carrier_energy
        return 1.0 + self.momentum**2 / 2.0

    @property
    def detector(self) -> float:
        return (self.detector_x if self.detector_x is not None
                else self.flight_distance)

    def predicted_spacing(self) -> float:
        """Fringe period from the covariant diffraction law
        T = 2 pi hbar s / (M c^2 epsilon), which is 2 pi hbar L / (<p> c^2
        epsilon) at s = s* = M L / p0."""
        if self.gate_spacing == 0:
            raise DomainError("no fringe prediction for zero gate spacing")
        return 2.0 * math.pi * self.s_star / self.gate_spacing


DESK_SCALE = TwoGateConfig()


def _spatial_packet(cfg: TwoGateConfig) -> GaussianSpatialPacket:
    """The spatial Gaussian, whose coefficients 1/2w^2, x0/w^2, its square
    and x0^2/2w^2, and its normalization pi w^2, must lie inside the float
    range."""
    w, x0 = cfg.spatial_width, cfg.spatial_center
    w2 = w * w
    if not (0.0 < w2 and math.pi * w2 < math.inf and 0.5 / w2 < math.inf
            and x0 * x0 / w2 < math.inf
            and (x0 / w2) * (x0 / w2) < math.inf):
        raise DomainError(f"spatial_width = {w:g}, spatial_center = {x0:g}: "
                          "the Gaussian's coefficients or its normalization "
                          "leave the float range")
    return GaussianSpatialPacket(center_x=x0, width_sigma_x=w,
                                 mean_momentum_p0=cfg.momentum)


def build_packet(cfg: TwoGateConfig) -> SpacetimePacket:
    w2 = cfg.gate_width * cfg.gate_width
    if not 0.0 < w2 < math.inf:
        raise DomainError(f"gate_width = {cfg.gate_width:g}: its square "
                          "leaves the float range")
    if cfg.gate_profile == GAUSSIAN and not math.pi * w2 < math.inf:
        raise DomainError(f"packet.gate_width = {cfg.gate_width:g}: the "
                          "Gaussian gates' overlap pi w^2 leaves the float "
                          "range")
    for key in ("gate_spacing", "momentum"):  # gate overlap, carrier energy
        value = getattr(cfg, key)
        if not value * value < math.inf:
            raise DomainError(f"{key} = {value:g}: its square leaves the "
                              "float range")
    spatial = _spatial_packet(cfg)
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
        if not (np.isfinite(self.times).all()
                and np.isfinite(self.intensity).all()):
            raise DomainError("trace times and intensities must be finite")
        if (self.times[1:] <= self.times[:-1]).any():
            raise DomainError("times must be strictly increasing")
        if (self.intensity < 0).any():
            raise DomainError("intensity must be non-negative")


@dataclass(frozen=True)
class FringeReport:
    peak_times: list
    spacing_T: float
    visibility: float
    relative_error: float | None


@dataclass(frozen=True)
class TwoGateOutcome:
    trace: IntensityTrace
    incoherent_trace: IntensityTrace
    interference_visibility: float
    s_elapsed: float
    predicted_spacing: float | None
    engine: str  # the engine that ran
    drift: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def norm_drift(self) -> float:
        """Relative change of the field's norm^2, computed when first read:
        a scan row never reads it."""
        return self.drift()


def _control_pulses(cfg: TwoGateConfig) -> tuple:
    """Each gate's pulse propagated separately; intensities added: the
    times, that intensity, and a function returning the packet's norm^2
    before and after its flight time.

    There is no joint amplitude: standard evolution carries no mechanism
    for coherence between emissions at different times, so the output is a
    mixed state and the cross term is absent by construction.
    """
    # free evolution commutes with translations: the packet starts at 0
    # and the detector sits at the distance it has to travel
    comp0 = spatial_component(replace(_spatial_packet(cfg), center_x=0.0))
    distance = cfg.detector - cfg.spatial_center
    t_flight = distance / cfg.momentum
    if not 0.0 < t_flight < math.inf:
        raise DomainError(
            f"flight time (detector_x - spatial_center) / momentum = "
            f"{t_flight:g} is not positive and finite")

    spread = propagate_component(comp0, 1.0, t_flight)
    sigma_arrival = spread.intensity_sigma / cfg.momentum
    center = t_flight + 0.5 * cfg.gate_spacing
    half = 4.0 * sigma_arrival + cfg.gate_spacing
    if not 2.0 * half < math.inf:
        raise DomainError(
            f"the arrival window for packet.momentum = {cfg.momentum:g}, "
            f"packet.spatial_width = {cfg.spatial_width:g} and "
            f"packet.gate_spacing = {cfg.gate_spacing:g} spans more than "
            "the float range")
    n_t = axis_samples(2.0 * half, sigma_arrival, "arrival pulses of width")
    times = np.linspace(center - half, center + half, n_t)

    # one row per gate: each pulse reaches the detector after it opens
    elapsed = times - np.array([[0.0], [cfg.gate_spacing]])
    later = elapsed > 0
    comp = propagate_component(comp0, 1.0, elapsed[later])
    pulses = np.zeros(elapsed.shape)
    pulses[later] = 0.5 * np.abs(comp(distance)) ** 2
    return times, pulses[0] + pulses[1], lambda: tuple(
        component_overlap(c, c).real for c in (comp0, spread))


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

    # each theory gives its times, its intensity, its incoherent reference
    # and its norm^2 before and after
    if theory == SCHRODINGER:
        if cfg.engine != CLOSED_FORM:
            warnings.warn(f"{SCHRODINGER} has no {cfg.engine} path: it runs "
                          f"in {CLOSED_FORM}", stacklevel=2)
        engine = CLOSED_FORM
        times, intensity, norms = _control_pulses(cfg)
        inc_intensity = intensity  # a mixed state has no cross term
    else:
        engine = cfg.engine
        # the field is X(x) sum_k T_k(t); the incoherent reference drops
        # the cross terms between gates
        x_d, _, times, temporal, norms = read_field(
            build_packet(cfg), theory, s, engine, cfg.detector)
        intensity = np.abs(x_d * sum(temporal)) ** 2
        inc_intensity = sum(np.abs(x_d * tk) ** 2 for tk in temporal)

    trace = IntensityTrace(times=times, intensity=intensity,
                           detector_x=cfg.detector, theory=theory)
    inc_trace = IntensityTrace(times=times, intensity=inc_intensity,
                               detector_x=cfg.detector, theory=theory)
    peak_inc = float(inc_intensity.max())
    cross = float(np.abs(intensity - inc_intensity).max())
    visibility = cross / peak_inc if peak_inc > 0 else 0.0

    def drift() -> float:  # PropagationResult.norm_drift
        before, after = norms()
        return abs(after - before) / before
    return TwoGateOutcome(
        trace=trace, incoherent_trace=inc_trace,
        interference_visibility=visibility, s_elapsed=s,
        predicted_spacing=(cfg.predicted_spacing() if theory == STUECKELBERG
                           and cfg.gate_spacing > 0 else None),
        engine=engine, drift=drift)


def _median(values: np.ndarray) -> float:
    """np.median, bitwise, without its first call's numpy.ma import."""
    v = np.sort(values)
    mid = len(v) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


def extract_fringes(trace: IntensityTrace,
                    threshold_fraction: float = THRESHOLD_FRACTION,
                    predicted_spacing: float | None = None) -> FringeReport:
    """Peak positions, fringe spacing and contrast inside the central
    envelope window |t - <t>| <= 1.5 sigma_t of the trace."""
    if len(trace.times) == 0:
        raise DomainError("empty trace")
    if not 0.0 < threshold_fraction < 1.0:
        raise DomainError("threshold_fraction must be in (0, 1)")
    t = np.asarray(trace.times, dtype=float)
    y = np.asarray(trace.intensity, dtype=float)
    # a power of two scales exactly, and keeps the sums below finite
    y = np.ldexp(y, -math.frexp(float(y.max()))[1])
    u = np.ldexp(t, -math.frexp(float(np.abs(t).max()))[1])
    total = float(y.sum())
    if total <= 0:
        raise NoFringes("trace carries no intensity")
    mean_u = float((u * y).sum() / total)
    sigma_u = math.sqrt(max(float(((u - mean_u) ** 2 * y).sum() / total), 0.0))
    idx = (np.abs(u - mean_u) <= 1.5 * sigma_u).nonzero()[0]
    if sigma_u == 0.0 or idx.size < 3:
        raise NoFringes("central window too narrow for peak analysis")
    lo, hi = idx[0], idx[-1]
    w_max = float(y[lo:hi + 1].max())
    w_min = float(y[lo:hi + 1].min())
    threshold = threshold_fraction * w_max

    a, b = max(lo, 1), min(hi, len(y) - 2)
    mid = y[a:b + 1]
    # leftmost sample of a plateau counts as the peak
    hit = (mid > y[a - 1:b]) & (mid >= y[a + 1:b + 2]) & (mid >= threshold)
    i = hit.nonzero()[0] + a
    # the vertex of the parabola through the three samples, or the sample
    # time where they do not curve down
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    down = denom < 0
    shift = 0.5 * (y[i - 1] - y[i + 1]) / np.where(down, denom, -1.0)
    peaks = np.where(down, t[i] + shift * (t[i + 1] - t[i]), t[i])
    if len(peaks) < 2:
        raise NoFringes(f"found {len(peaks)} peak(s); need at least 2")

    spacing = _median(peaks[1:] - peaks[:-1])
    visibility = (w_max - w_min) / (w_max + w_min)
    rel = (abs(spacing - predicted_spacing) / predicted_spacing
           if predicted_spacing else None)
    return FringeReport(peak_times=peaks.tolist(), spacing_T=spacing,
                        visibility=visibility, relative_error=rel)


def outcome_fringes(outcome: TwoGateOutcome, threshold_fraction: float =
                    THRESHOLD_FRACTION) -> FringeReport:
    """The fringes of a two-gate run. A covariant trace whose interference
    visibility is below MIN_INTERFERENCE_VISIBILITY has none: the peaks
    left in it are the gate envelopes."""
    vis = outcome.interference_visibility
    if (outcome.trace.theory == STUECKELBERG
            and vis < MIN_INTERFERENCE_VISIBILITY):
        raise NoFringes(f"interference visibility {vis:.3g} is below the "
                        f"floor of {MIN_INTERFERENCE_VISIBILITY}; the peaks "
                        "left are the gate envelopes")
    return extract_fringes(outcome.trace, threshold_fraction,
                           outcome.predicted_spacing)


SCAN_PARAMS = ("gate_spacing", "flight_distance")


@dataclass(frozen=True)
class ScanRow:
    value: float
    visibility: float
    spacing_T: float | None
    error: str | None


def visibility_scan(theory: str, cfg: TwoGateConfig, values,
                    threshold_fraction: float = THRESHOLD_FRACTION,
                    param: str = "gate_spacing") -> list:
    """Two-gate run and fringe extraction per value of the config field
    param, in input order in the calling thread; per-row failures are
    recorded in the row and the scan continues."""
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
                spacing = outcome_fringes(outcome,
                                          threshold_fraction).spacing_T
            except NoFringes as exc:
                err = f"NoFringes: {exc}"
            return ScanRow(value=value,
                           visibility=outcome.interference_visibility,
                           spacing_T=spacing, error=err)
        except Exception as exc:  # per-row isolation, scan continues
            return ScanRow(value=value, visibility=float("nan"),
                           spacing_T=None, error=f"{type(exc).__name__}: {exc}")

    return [one(v) for v in values]

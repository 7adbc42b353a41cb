"""Kernel application: a closed-form complex-Gaussian engine (fast path and
oracle) and a Simpson quadrature engine (general path), plus Hamilton-relation
drift diagnostics.

The theories differ only in the time rule that detector_trace reads at the
detector: nothing happens on t (the control: each gate launches the spatial
packet, and the pulses add as intensities), each gate shifts rigidly by s
(floquet), or each gate spreads with effective mass -M c^2 (stueckelberg).

The closed-form engine rests on one completed-square integral,

    int dx' C exp(i beta (x-x')^2) exp(-a x'^2 + b x')
        = C sqrt(pi/gamma) exp(i beta x^2 + (b - 2 i beta x)^2 / (4 gamma)),
    gamma = a - i beta,

applied once per axis (the covariant kernel factorizes). The code works in
internal units hbar = M = c = 1, so the kernel of an axis carries only its
effective mass mu: +1 on x, and -1 (that is, -M c^2) on the covariant time
axis. Components carry log-amplitudes so widely displaced gates never
overflow intermediate exponentials.

The quadrature engine takes the Simpson sum of the same kernel over uniform
input nodes to a uniform output grid. Because exp(i beta (x - u)^2) splits
into chirps in x, in u and in the index difference, that sum is one linear
convolution, evaluated as a chirp-z (Bluestein) transform with a zero-padded
FFT: O(N log N) time and O(N) memory for N = n_out + n_in, where a dense
kernel matrix would take n_out x n_in of both.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .numerics import simpson_weights
from .packets import (GAUSSIAN, GaussianSpatialPacket, Grid1D, Grid2D,
                      SpacetimePacket, _axis)

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
ENGINES = (CLOSED_FORM, QUADRATURE)

SCHRODINGER = "schrodinger_control"
FLOQUET = "floquet"
STUECKELBERG = "stueckelberg"
THEORIES = (SCHRODINGER, FLOQUET, STUECKELBERG)

INPUT_SAMPLES_PER_CYCLE = 48   # of the kernel chirp, on every input grid
MIN_INPUT_SAMPLES = 513  # on every quadrature input grid
SAMPLES_PER_FEATURE = 12  # of the narrowest intensity feature, on output axes
MIN_AXIS_SAMPLES = 129
INPUT_PAD_SIGMAS = 7.5   # input grids: half-width in amplitude widths
OUTPUT_PAD_SIGMAS = 6.5  # output grids: half-width in intensity sigmas
# most samples on one grid axis: about 16 MB per complex array of one axis
MAX_AXIS_SAMPLES = 2**20
# largest bound on the rounding of a closed-form exponent on its grid; the
# traces it passes agree with quadrature to about 1e-4
MAX_EXPONENT_ROUNDING = 1e-2


def axis_prefactor(mu: float, s):
    """Per-axis kernel normalization sqrt(mu/(2 pi i s)). The principal
    complex square root fixes the branch and gives K(-s) = conj(K(s))."""
    if isinstance(s, np.ndarray):
        return np.sqrt(mu / (2j * np.pi * np.asarray(s, dtype=complex)))
    # sqrt(-i y) = r (1 - i sign(y)), y = mu / 2 pi s, as numpy gives it
    r = math.sqrt(0.5 * abs(mu / (2.0 * math.pi * s)))
    return complex(r, -math.copysign(r, mu * s))


@dataclass(frozen=True)
class GaussianComponent1D:
    """f(u) = exp(logamp - a u^2 + b u) with Re(a) > 0; the fields are
    arrays when propagated over an array of s."""

    logamp: complex
    a: complex
    b: complex

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(self.logamp - self.a * u * u + self.b * u)

    @property
    def intensity_mean(self) -> float:
        return float(self.b.real / (2.0 * self.a.real))

    @property
    def intensity_sigma(self) -> float:
        return 1.0 / (2.0 * math.sqrt(self.a.real))


def gaussian_component(center: float, width: float, wavenumber: float = 0.0,
                       logamp: complex = 0.0) -> GaussianComponent1D:
    """Normalized Gaussian envelope exp(-(u-center)^2 / 2 width^2) times a
    plane wave exp(i wavenumber u), with an extra log-amplitude factor."""
    a = 0.5 / (width * width)
    b = center / (width * width) + 1j * wavenumber
    log_norm = -0.25 * math.log(math.pi * width * width)
    return GaussianComponent1D(
        logamp=logamp + log_norm - center * center / (2.0 * width * width),
        a=complex(a), b=complex(b))


def propagate_component(comp: GaussianComponent1D, mu: float,
                        s) -> GaussianComponent1D:
    """Apply the per-axis kernel with effective mass mu for parameter s: a
    number (cmath; the coefficients are Python complex) or an array (numpy)."""
    many = isinstance(s, np.ndarray)
    xp, some, every = (np, np.any, np.all) if many else (cmath, bool, bool)
    beta = mu / (2.0 * s)
    gamma = comp.a - 1j * beta
    # a NaN Re(gamma) passes on to the float-range check
    if some(gamma.real <= 0):
        raise DomainError("non-normalizable component: Re(gamma) <= 0")
    a_new = -1j * beta + beta * beta / gamma
    # a subnormal Re(a) has lost its precision; its overlaps overflow
    if not every((a_new.real >= 2.0 ** -1022) & (a_new.real < math.inf)):
        raise DomainError(f"envelope spread over s = {np.max(s):g} leaves "
                          "the float range: Re(a) is not a positive float")
    log_c = xp.log(axis_prefactor(mu, s))
    logamp = (comp.logamp + log_c + 0.5 * xp.log(math.pi / gamma)
              + comp.b * comp.b / (4.0 * gamma))
    b_new = -1j * beta * comp.b / gamma
    for name, value in (("log-amplitude", logamp), ("coefficient b", b_new)):
        if not every(xp.isfinite(value)):
            raise DomainError(
                f"the {name} of a component spread over s = {np.max(s):g} "
                f"leaves the float range (|b| = {abs(comp.b):g} before)")
    return GaussianComponent1D(logamp=logamp, a=a_new, b=b_new)


def component_overlap(f: GaussianComponent1D,
                      g: GaussianComponent1D) -> complex:
    """int f(u) conj(g(u)) du in closed form; 4a may pass the float range
    where b^2 / a does not."""
    a = f.a + np.conj(g.a)
    b = f.b + np.conj(g.b)
    return complex(np.exp(f.logamp + np.conj(g.logamp) + 0.25 * (b * b / a))
                   * np.sqrt(np.pi / a))


def spatial_component(packet: GaussianSpatialPacket) -> GaussianComponent1D:
    return gaussian_component(packet.center_x, packet.width_sigma_x,
                              packet.mean_momentum_p0)


def gate_component(gate, mean_energy: float) -> GaussianComponent1D:
    if gate.profile != GAUSSIAN:
        raise DomainError("the automatic covariant time axis is sized in "
                          "closed form, for Gaussian gates only")
    amp = complex(gate.amplitude)
    if amp == 0:
        raise DomainError("zero-amplitude gate has no log-amplitude")
    comp = gaussian_component(gate.center_t, gate.width_delta_t,
                              -mean_energy, logamp=cmath.log(amp))
    # gate envelopes are not individually normalized
    return GaussianComponent1D(
        logamp=comp.logamp + 0.25 * math.log(math.pi * gate.width_delta_t**2),
        a=comp.a, b=comp.b)


def time_mass(theory: str) -> float | None:
    """The theory's time rule: spreading each gate with effective mass
    -M c^2 = -1 (covariant), or None for a rigid shift by s (time-shift)."""
    if theory == FLOQUET:
        return None
    if theory == STUECKELBERG:
        return -1.0
    raise DomainError(f"no space-time propagation for theory {theory!r}")


@dataclass(frozen=True)
class PropagationResult:
    """A propagated field in factored form: the spatial factor on grid.x
    times the sum of the per-gate temporal factors on grid.t, if any."""

    spatial: np.ndarray
    grid: object                 # Grid1D or Grid2D
    norm_before: float
    norm_after: float
    temporal: tuple = ()

    @property
    def field(self) -> np.ndarray:
        if not self.temporal:
            return self.spatial
        return np.outer(self.spatial, sum(self.temporal))

    @property
    def norm_drift(self) -> float:
        return abs(self.norm_after - self.norm_before) / self.norm_before


@dataclass(frozen=True)
class HamiltonDiagnostics:
    slope_x: float
    slope_t: float
    predicted_slope_x: float
    predicted_slope_t: float


def _require_positive(name: str, s: float) -> None:
    if not 0.0 < s < math.inf:  # -0.0 and nan too
        raise DomainError(f"{name} must be > 0 and finite, got {s:g}")


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _count(n) -> str:
    """A sample count as printed: exact up to 2^53, past which the trailing
    digits of a count computed from floats are noise."""
    return f"{n}" if n <= 2**53 else f"{n:.6g}"


def axis_samples(span: float, feature: float, what: str,
                 axis: str = "t") -> int:
    """The sample count of an automatic output axis: SAMPLES_PER_FEATURE
    samples per feature, the narrowest width or period of the intensity,
    over span; an odd count, at least MIN_AXIS_SAMPLES. Past
    MAX_AXIS_SAMPLES it raises before anything is allocated."""
    step = feature / SAMPLES_PER_FEATURE
    per_span = span / step if step > 0 else math.inf
    n = (_odd(max(MIN_AXIS_SAMPLES, math.ceil(per_span)))
         if per_span < math.inf else None)
    if n is None or n > MAX_AXIS_SAMPLES:
        raise ResolutionError(
            f"resolving {what} {feature:g} over a span of {span:g} needs "
            f"n_{axis} = {_count(per_span if n is None else n)}, above the "
            f"ceiling of {MAX_AXIS_SAMPLES}")
    return n


def _closed_form_axis(comps, moved: list, out, lo: float,
                      hi: float) -> tuple:
    """The values on out, points of [lo, hi], of the Gaussian components
    comps() already propagated in closed form to moved, and a function
    returning the exact norm^2 of their sum before and after (it calls comps).

    Each value is exp(logamp - a u^2 + b u), whose terms can be far larger
    than their sum. It raises where their rounding on [lo, hi] leaves the
    modulus or, for more than one component, the relative phases
    unreliable."""
    u = max(abs(lo), abs(hi))
    mag = ((lambda z: math.hypot(z.real, z.imag)) if len(moved) > 1
           else (lambda z: abs(z.real)))
    size = max(mag(m.logamp) + mag(m.a) * u * u + mag(m.b) * u
               for m in moved)
    if not size * math.ulp(1.0) <= MAX_EXPONENT_ROUNDING:
        raise DomainError(
            f"closed-form exponent terms reach {size:.3g} on the grid up to "
            f"|u| = {u:.3g}: their rounding passes {MAX_EXPONENT_ROUNDING}")
    return [m(out) for m in moved], lambda: tuple(
        float(sum(component_overlap(f, g) for f in cs for g in cs).real)
        for cs in (comps(), moved))


def _quadrature_axis(sources, out: np.ndarray, lo: float, hi: float,
                     mu: float, s: float, k0: float, axis: str,
                     at: float | None = None):
    """Propagate the functions sources(u) of one axis by Simpson quadrature
    over at least MIN_INPUT_SAMPLES samples u of [lo, hi], as many as resolve
    the kernel chirp (up to MAX_AXIS_SAMPLES): their values on the uniform grid
    out and the grid norm^2 of their sum before and after. k0 is the largest
    wavenumber of the input functions. Given a point at of out's range, the
    values are the same Simpson sums at that point instead.

    The Simpson sum sum_j K(out_i - u_j) w_j v_j is evaluated as a chirp-z
    (Bluestein) transform: with out_i = out_0 + i dx, u_j = lo + j h and
    d = out_0 - lo,

        (out_i - u_j)^2 = d^2 + 2 d dx i + (dx^2 - dx h) i^2
                          - 2 d h j + (h^2 - dx h) j^2 + dx h (i - j)^2,

    so the sum is a chirp on i times the linear convolution of the chirp
    exp(i beta dx h k^2) with the chirped, weighted inputs, one zero-padded
    FFT of length >= n_out + n_in - 1 for all sources at once:
    O((n_out + n_in) log(n_out + n_in)) time and memory, not n_out x n_in.
    """
    k_max = abs(mu) * max(abs(out[-1] - lo), abs(out[0] - hi)) / s + k0
    span = hi - lo
    needed = k_max * span / (2.0 * math.pi) * INPUT_SAMPLES_PER_CYCLE
    if not needed < math.inf:
        raise ResolutionError(f"the sample count for wavenumber {k_max:g} "
                              f"over a span of {span:g} leaves the float range")
    n_in = max(MIN_INPUT_SAMPLES, _odd(math.ceil(needed) + 1))
    if n_in > MAX_AXIS_SAMPLES:
        raise ResolutionError(
            f"resolving the kernel chirp needs n_{axis} = {_count(n_in)} "
            f"input samples, above the ceiling of {MAX_AXIS_SAMPLES}")
    h = span / (n_in - 1)
    u = np.linspace(lo, hi, n_in)
    values_in = sources(u)
    w_in = simpson_weights(n_in, u[1] - u[0])
    n_out = len(out)
    dx = (out[-1] - out[0]) / (n_out - 1)
    beta = mu / (2.0 * s)
    d = out[0] - lo
    i = np.arange(n_out)
    j = np.arange(n_in)
    k = np.arange(1 - n_in, n_out)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = beta * (d * d + (2.0 * d * dx + (dx * dx - dx * h) * i) * i)
    if not np.isfinite(phase).all():
        raise DomainError(f"the kernel phase over the output {axis} axis "
                          "leaves the float range")
    pre = complex(axis_prefactor(mu, s)) * np.exp(1j * phase)
    post = w_in * np.exp(1j * beta * ((h * h - dx * h) * j - 2.0 * d * h) * j)
    n_fft = 1 << (n_out + n_in - 2).bit_length()
    spectrum = (np.fft.fft(np.exp(1j * beta * dx * h * k * k), n_fft)
                * np.fft.fft(np.asarray(values_in) * post, n_fft))
    values = list(np.fft.ifft(spectrum)[:, n_in - 1:n_in - 1 + n_out] * pre)
    w_out = simpson_weights(n_out, out[1] - out[0])
    after = float(w_out @ np.abs(sum(values)) ** 2)
    if at is not None:
        values = [complex(axis_prefactor(mu, s)) * np.exp(
            1j * beta * (at - u) ** 2) @ (w_in * v) for v in values_in]
    return values, float(w_in @ np.abs(sum(values_in)) ** 2), after


def _padded_range(comps: list) -> tuple:
    """(lo, hi) covering the intensities of the components."""
    lo = min(cp.intensity_mean - OUTPUT_PAD_SIGMAS * cp.intensity_sigma
             for cp in comps)
    hi = max(cp.intensity_mean + OUTPUT_PAD_SIGMAS * cp.intensity_sigma
             for cp in comps)
    return lo, hi


def _auto_axis(spread: list, axis: str) -> tuple:
    """(lo, hi, n) of the automatic axis of the spread Gaussian components:
    their padded range, sampled (axis_samples) per the narrowest feature of
    the intensity of their sum. That is the narrowest intensity sigma or the
    period 2 pi / |Im(b_j - b_k)| of the cross terms, whichever is shorter;
    the phase of f_j conj(f_k) is exactly linear in u for components of one
    width, and a chirp common to all of them cancels in the intensity."""
    lo, hi = _padded_range(spread)
    rates = [float(cp.b.imag) for cp in spread]
    beat = max(rates) - min(rates)
    period = 2.0 * math.pi / beat if beat else math.inf
    return lo, hi, axis_samples(
        hi - lo, min(period, *(cp.intensity_sigma for cp in spread)),
        "intensity features of width", axis)


def _output_axis(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    """The n uniform samples of the automatic name axis [lo, hi]."""
    if not lo < hi:
        raise DomainError(f"the {name} axis [{lo:g}, {hi:g}] has no width in "
                          "floating point")
    return _axis(lo, hi, n)


# ---------------------------------------------------------------- Schrodinger

def _spatial_factor(spatial: GaussianSpatialPacket, s: float, engine: str,
                    x=None) -> tuple:
    """X after spreading with mass M for s: its values at x, a point of the
    automatic x range or a uniform axis (the automatic one when None); that
    range; and a function returning its norm^2 before and after. At a point,
    the closed form bounds its rounding over the range, and quadrature takes
    the Simpson kernel sum there and the norm on the automatic axis."""
    moved = propagate_component(spatial_component(spatial), 1.0, s)
    lo, hi = _padded_range([moved])
    if x is None:
        x = _output_axis(*_auto_axis([moved], "x"), "x")
    elif not isinstance(x, np.ndarray) and not lo <= x <= hi:
        raise DomainError(f"detector_x = {x:g} lies outside the x range "
                          f"[{lo:g}, {hi:g}] of the spread packet")
    point = not isinstance(x, np.ndarray)
    if engine == CLOSED_FORM:
        (values,), norms = _closed_form_axis(
            lambda: [spatial_component(spatial)], [moved], x,
            *((lo, hi) if point else (x[0], x[-1])))
        return values, (lo, hi), norms
    pad = INPUT_PAD_SIGMAS * spatial.width_sigma_x  # the input x range
    (values,), before, after = _quadrature_axis(
        lambda u: [spatial.amplitude(u)],
        _output_axis(*_auto_axis([moved], "x"), "x") if point else x,
        spatial.center_x - pad, spatial.center_x + pad, 1.0, s,
        abs(spatial.mean_momentum_p0), "x", x if point else None)
    return values, (lo, hi), lambda: (before, after)


def propagate_schrodinger(packet: GaussianSpatialPacket, t_elapsed: float,
                          engine: str = CLOSED_FORM,
                          grid: Grid1D | None = None) -> PropagationResult:
    """Spread-and-drift evolution of the spatial Gaussian by t_elapsed."""
    _require_positive("t_elapsed", t_elapsed)
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}")
    spatial, (lo, hi), norms = _spatial_factor(packet, t_elapsed, engine,
                                               grid.x if grid else None)
    n_before, n_after = norms()
    return PropagationResult(spatial=spatial,
                             grid=grid or Grid1D(lo, hi, len(spatial)),
                             norm_before=n_before, norm_after=n_after)


# -------------------------------------------------------- Floquet/Stueckelberg

def _temporal_factor(packet: SpacetimePacket, theory: str, s: float,
                     engine: str, t=None) -> tuple:
    """The gate terms T_k after propagation by s under theory, on the time
    axis t (the automatic one when None); t; and a function returning the
    norm^2 of their sum before and after. This is the time rule by s: each
    gate is shifted rigidly by s (exact under either engine), and the axis
    samples the gate width; or it is spread with mass -M c^2, and the axis
    samples the spread intensity (_auto_axis). In closed form the unspread
    gates are built again only when the norms are read."""
    mu_t = time_mass(theory)
    if mu_t is None:
        if t is None:
            pad = 1.25 * OUTPUT_PAD_SIGMAS
            lo = min(g.center_t - pad * g.width_delta_t
                     for g in packet.gates) + s
            hi = max(g.center_t + pad * g.width_delta_t
                     for g in packet.gates) + s
            t = _output_axis(lo, hi, axis_samples(
                hi - lo, min(g.width_delta_t for g in packet.gates),
                "gates of width"), "time")
        return (packet.gate_terms(t - s), t,
                lambda: (packet.temporal_norm2(),) * 2)

    def gates() -> list:
        return [gate_component(g, packet.mean_energy_E0)
                for g in packet.gates]
    spread = ([propagate_component(g, mu_t, s) for g in gates()]
              if engine == CLOSED_FORM or t is None else [])
    if t is None:
        t = _output_axis(*_auto_axis(spread, "t"), "time")
    if engine == CLOSED_FORM:
        values, norms = _closed_form_axis(gates, spread, t, t[0], t[-1])
        return values, t, norms
    lo = min(g.center_t - INPUT_PAD_SIGMAS * g.width_delta_t
             for g in packet.gates)
    hi = max(g.center_t + INPUT_PAD_SIGMAS * g.width_delta_t
             for g in packet.gates)
    values, before, after = _quadrature_axis(
        packet.gate_terms, t, lo, hi, mu_t, s,
        abs(packet.mean_energy_E0), "t")
    return values, t, lambda: (before, after)


def _control_trace(packet: SpacetimePacket, flight: float, engine: str,
                   x_d: float) -> tuple:
    """The control's time rule, nothing on t: gate k launches X at its
    centre t_k, the detector x_d sees it spread by t - t_k, and the N
    launches, 1/N of the photon each, add as intensities with no cross term:
    standard evolution gives no coherence between emissions at different
    times. It returns what detector_trace does, on a window of 4 arrival-pulse
    sigmas around the arrivals t_k + flight."""
    if engine != CLOSED_FORM:
        warnings.warn(f"{SCHRODINGER} has no {engine} path: it runs in "
                      f"{CLOSED_FORM}", stacklevel=3)
    spatial, starts = packet.spatial, [g.center_t for g in packet.gates]
    p0, width = spatial.mean_momentum_p0, spatial.width_sigma_x
    # free evolution commutes with translations: X starts at 0 and the
    # detector sits at the distance it has to travel
    comp0 = gaussian_component(0.0, width, p0)
    distance = x_d - spatial.center_x
    spread = propagate_component(comp0, 1.0, flight)
    sigma = spread.intensity_sigma / p0
    center = flight + 0.5 * (min(starts) + max(starts))
    half = 4.0 * sigma + (max(starts) - min(starts))
    if not 2.0 * half < math.inf:
        raise DomainError(
            f"the arrival window for packet.momentum = {p0:g}, "
            f"packet.spatial_width = {width:g} and packet.gate_spacing = "
            f"{max(starts) - min(starts):g} spans more than the float range")
    times = _output_axis(center - half, center + half, axis_samples(
        2.0 * half, sigma, "arrival pulses of width"), "time")
    # one row per gate: each pulse reaches the detector after it opens
    elapsed = times - np.array(starts)[:, None]
    later = elapsed > 0
    pulses = np.zeros(elapsed.shape)
    # an overflowing spread (p0 = 1e154) fails propagate_component's checks
    with np.errstate(over="ignore", invalid="ignore"):
        pulses[later] = np.abs(propagate_component(
            comp0, 1.0, elapsed[later])(distance)) ** 2 / len(starts)
    intensity = pulses.sum(axis=0)
    return times, intensity, intensity, lambda: tuple(
        component_overlap(c, c).real for c in (comp0, spread)), CLOSED_FORM


def auto_output_grid(packet: SpacetimePacket, theory: str,
                     s: float) -> Grid2D:
    """The grid propagate_spacetime builds when given none."""
    return propagate_spacetime(packet, theory, s).grid


def _read_field(packet: SpacetimePacket, theory: str, s: float, engine: str,
                x=None, t=None) -> tuple:
    """The field X(x) sum_k T_k(t) of packet propagated by s under theory, in
    factored form: X at x (_spatial_factor); the x range; the time axis t
    and the T_k on it (_temporal_factor); and a function returning the
    norm^2 before and after."""
    temporal, t, t_norms = _temporal_factor(packet, theory, s, engine, t)
    spatial, x_range, x_norms = _spatial_factor(packet.spatial, s, engine, x)

    def norms() -> tuple:
        (x_before, x_after), (t_before, t_after) = x_norms(), t_norms()
        return x_before * t_before, x_after * t_after
    return spatial, x_range, t, temporal, norms


def propagate_spacetime(packet: SpacetimePacket, theory: str, s: float,
                        engine: str = CLOSED_FORM,
                        grid: Grid2D | None = None) -> PropagationResult:
    """Propagate a space-time packet by s under the time-shift (Floquet) or
    covariant (Stueckelberg) theory onto grid, the automatic one when None;
    the field stays rank-1 (_read_field)."""
    _require_positive("s", s)
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}")
    spatial, (lo_x, hi_x), t, temporal, norms = _read_field(
        packet, theory, s, engine, *((grid.x, grid.t) if grid else ()))
    before, after = norms()
    return PropagationResult(
        spatial=spatial, temporal=tuple(temporal),
        grid=grid or Grid2D(lo_x, hi_x, len(spatial), t[0], t[-1], len(t)),
        norm_before=before, norm_after=after)


def detector_trace(packet: SpacetimePacket, theory: str, s: float,
                   engine: str, x_d: float) -> tuple:
    """The intensity of packet at the detector x_d after the flight
    parameter s under theory's time rule (for the control, s is the flight
    time): the times, the trace and its incoherent reference (no cross
    terms), a function returning the norm^2 before and after, and the engine
    that ran."""
    _require_positive("s", s)
    if theory == SCHRODINGER:
        return _control_trace(packet, s, engine, x_d)
    x_value, _, times, temporal, norms = _read_field(packet, theory, s,
                                                     engine, x_d)
    intensity = np.abs(x_value * sum(temporal)) ** 2
    incoherent = sum(np.abs(x_value * tk) ** 2 for tk in temporal)
    return times, intensity, incoherent, norms, engine


def propagate_floquet(packet: SpacetimePacket, delta_s: float,
                      engine: str = CLOSED_FORM,
                      grid: Grid2D | None = None) -> PropagationResult:
    """Exact time shift by delta_s composed with spatial free propagation:
    the temporal intensity marginal shifts without changing shape."""
    return propagate_spacetime(packet, FLOQUET, delta_s, engine, grid)


def propagate_stueckelberg(packet: SpacetimePacket, s_elapsed: float,
                           engine: str = CLOSED_FORM,
                           grid: Grid2D | None = None) -> PropagationResult:
    """Covariant evolution: both axes spread, the time axis with effective
    mass -M c^2, which is what chirps the gates and produces temporal fringes."""
    return propagate_spacetime(packet, STUECKELBERG, s_elapsed, engine, grid)


def _intensity_mean(u: np.ndarray, factor: np.ndarray, h: float) -> float:
    """Simpson mean of u under the intensity |factor(u)|^2."""
    w = simpson_weights(len(u), h) * np.abs(factor) ** 2
    return float(w @ u) / float(np.sum(w))


def hamilton_diagnostics(packet: SpacetimePacket, theory: str,
                         s_samples) -> HamiltonDiagnostics:
    """Least-squares drift slopes of <x>(s) and <t>(s) against the
    predictions p0/M and E0/(M c^2), that is p0 and E0 (dt/ds = 1 for the
    time-shift theory)."""
    s_samples = list(s_samples)
    if len(s_samples) < 3:
        raise DomainError("need at least 3 s samples")
    if len(set(s_samples)) < 3:
        raise DomainError("degenerate s samples")
    means_x, means_t = [], []
    for s in s_samples:
        res = propagate_spacetime(packet, theory, s, CLOSED_FORM)
        g = res.grid
        # the field is rank-1, so each mean needs only its own factor
        means_x.append(_intensity_mean(g.x, res.spatial, g.dx))
        means_t.append(_intensity_mean(g.t, sum(res.temporal), g.dt))
    sx = float(np.polyfit(s_samples, means_x, 1)[0])
    st = float(np.polyfit(s_samples, means_t, 1)[0])
    pred_t = 1.0 if time_mass(theory) is None else packet.mean_energy_E0
    return HamiltonDiagnostics(
        slope_x=sx, slope_t=st,
        predicted_slope_x=packet.spatial.mean_momentum_p0,
        predicted_slope_t=pred_t)

"""Kernel application: a closed-form complex-Gaussian engine (fast path and
oracle) and a Simpson quadrature engine (general path), plus Hamilton-relation
drift diagnostics.

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

import math
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
OUTPUT_SAMPLES_PER_CYCLE = 16  # of the chirp, on automatic x grids
SAMPLES_PER_FEATURE = 12  # of the narrowest intensity feature, on time axes
MIN_TIME_SAMPLES = 129
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
    return np.sqrt(mu / (2j * np.pi * np.asarray(s, dtype=complex)))


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
    """Apply the per-axis kernel with effective mass mu for parameter s
    (a number, or an array of them)."""
    beta = mu / (2.0 * s)
    gamma = comp.a - 1j * beta
    if np.any(gamma.real <= 0):
        raise DomainError("non-normalizable component: Re(gamma) <= 0")
    a_new = -1j * beta + beta * beta / gamma
    if not np.all((a_new.real > 0) & (a_new.real < np.inf)):
        raise DomainError(f"envelope spread over s = {np.max(s):g} leaves "
                          "the float range: Re(a) is not a positive float")
    log_c = np.log(axis_prefactor(mu, s))
    logamp = (comp.logamp + log_c + 0.5 * np.log(np.pi / gamma)
              + comp.b * comp.b / (4.0 * gamma))
    b_new = -1j * beta * comp.b / gamma
    return GaussianComponent1D(logamp=logamp, a=a_new, b=b_new)


def component_overlap(f: GaussianComponent1D,
                      g: GaussianComponent1D) -> complex:
    """int f(u) conj(g(u)) du in closed form."""
    a = f.a + np.conj(g.a)
    b = f.b + np.conj(g.b)
    return complex(np.exp(f.logamp + np.conj(g.logamp) + b * b / (4.0 * a))
                   * np.sqrt(np.pi / a))


def spatial_component(packet: GaussianSpatialPacket) -> GaussianComponent1D:
    return gaussian_component(packet.center_x, packet.width_sigma_x,
                              packet.mean_momentum_p0)


def gate_component(gate, mean_energy: float) -> GaussianComponent1D:
    if gate.profile != GAUSSIAN:
        raise DomainError("closed-form engine handles Gaussian gates only")
    amp = complex(gate.amplitude)
    if amp == 0:
        raise DomainError("zero-amplitude gate has no log-amplitude")
    comp = gaussian_component(gate.center_t, gate.width_delta_t,
                              -mean_energy, logamp=np.log(amp))
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
    engine: str
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


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _required_samples(k_max: float, span: float,
                      samples_per_cycle: float) -> int:
    cycles = k_max * span / (2.0 * math.pi)
    if not cycles * samples_per_cycle < math.inf:
        raise ResolutionError(f"the sample count for wavenumber {k_max:g} "
                              f"over a span of {span:g} leaves the float range")
    return _odd(max(33, int(math.ceil(cycles * samples_per_cycle)) + 1))


def time_samples(span: float, feature: float, what: str) -> int:
    """n_t of an automatic time axis: SAMPLES_PER_FEATURE samples per
    feature, the narrowest width or period of the intensity, over span; an
    odd count, at least MIN_TIME_SAMPLES. Past MAX_AXIS_SAMPLES it raises
    before anything is allocated."""
    step = feature / SAMPLES_PER_FEATURE
    per_span = span / step if step > 0 else math.inf
    n = (_odd(max(MIN_TIME_SAMPLES, math.ceil(per_span)))
         if per_span < math.inf else None)
    if n is None or n > MAX_AXIS_SAMPLES:
        raise ResolutionError(
            f"resolving {what} {feature:g} over a span of {span:g} needs "
            f"n_t = {per_span if n is None else n}, above the ceiling of "
            f"{MAX_AXIS_SAMPLES}")
    return n


def _closed_form_axis(comps: list, moved: list, out, lo: float,
                      hi: float) -> tuple:
    """The values on out, points of [lo, hi], of the Gaussian components
    comps already propagated in closed form to moved, and a function
    returning the exact norm^2 of their sum before and after.

    Each value is exp(logamp - a u^2 + b u), whose terms can be far larger
    than their sum. It raises where their rounding on [lo, hi] leaves the
    modulus or, for more than one component, the relative phases
    unreliable."""
    u = max(abs(lo), abs(hi))
    mag = np.abs if len(moved) > 1 else (lambda z: np.abs(np.real(z)))
    size = max(mag(m.logamp) + mag(m.a) * u * u + mag(m.b) * u
               for m in moved)
    if not size * np.finfo(float).eps <= MAX_EXPONENT_ROUNDING:
        raise DomainError(
            f"closed-form exponent terms reach {size:.3g} on the grid up to "
            f"|u| = {u:.3g}: their rounding passes {MAX_EXPONENT_ROUNDING}")
    return [m(out) for m in moved], lambda: tuple(
        float(sum(component_overlap(f, g) for f in cs for g in cs).real)
        for cs in (comps, moved))


def _quadrature_axis(sources, out: np.ndarray, lo: float, hi: float,
                     n_in: int, mu: float, s: float, k0: float, axis: str,
                     at: float | None = None):
    """Propagate the functions sources(u) of one axis by Simpson quadrature
    over at least n_in samples u of [lo, hi], as many as resolve the kernel
    chirp (up to MAX_AXIS_SAMPLES): their values on the uniform grid out and
    the grid norm^2 of their sum before and after. k0 is the largest
    wavenumber of the input functions. Given a point at of out's range, the
    values are the same Simpson sums at that one point instead.

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
    n_in = max(n_in, _required_samples(k_max, span, INPUT_SAMPLES_PER_CYCLE))
    if n_in > MAX_AXIS_SAMPLES:
        raise ResolutionError(
            f"resolving the kernel chirp needs n_{axis} = {n_in} input "
            f"samples, above the ceiling of {MAX_AXIS_SAMPLES}")
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
    pre = complex(axis_prefactor(mu, s)) * np.exp(
        1j * beta * (d * d + (2.0 * d * dx + (dx * dx - dx * h) * i) * i))
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


def _spatial_factor(spatial: GaussianSpatialPacket, x: np.ndarray, s: float,
                    engine: str, at: float | None = None) -> tuple:
    """X(x) after spreading with mass M for s, by quadrature X(at) instead
    when at is given, and a function returning its norm^2 before and
    after."""
    if engine == CLOSED_FORM:
        comp = spatial_component(spatial)
        (values,), norms = _closed_form_axis(
            [comp], [propagate_component(comp, 1.0, s)], x, x[0], x[-1])
        return values, norms
    (values,), before, after = _quadrature_axis(
        lambda u: [spatial.amplitude(u)], x, *_input_x(spatial), 513, 1.0, s,
        abs(spatial.mean_momentum_p0), "x", at)
    return values, lambda: (before, after)


def _input_x(spatial: GaussianSpatialPacket) -> tuple:
    """The x range of an input grid: the initial envelope, padded."""
    pad = INPUT_PAD_SIGMAS * spatial.width_sigma_x
    return spatial.center_x - pad, spatial.center_x + pad


def _padded_range(comps: list) -> tuple:
    """(lo, hi) covering the intensities of the components."""
    lo = min(cp.intensity_mean - OUTPUT_PAD_SIGMAS * cp.intensity_sigma
             for cp in comps)
    hi = max(cp.intensity_mean + OUTPUT_PAD_SIGMAS * cp.intensity_sigma
             for cp in comps)
    return lo, hi


def _output_x(spatial: GaussianSpatialPacket, s: float) -> tuple:
    """(lo, hi, n) of the x axis of an automatic output grid, covering the
    spatial packet spread over s and resolving its kernel chirp (none at
    s = 0) plus its mean wavenumber. It sizes x only: time axes sample the
    intensity's own features (time_samples)."""
    lo, hi = _padded_range([schrodinger_closed_form(spatial, s)])
    k_max = ((hi - lo) / abs(s) if s else 0.0) + abs(spatial.mean_momentum_p0)
    n = min(2048, _required_samples(k_max, hi - lo, OUTPUT_SAMPLES_PER_CYCLE))
    return lo, hi, n


# ---------------------------------------------------------------- Schrodinger

def schrodinger_closed_form(packet: GaussianSpatialPacket,
                            t_elapsed: float) -> GaussianComponent1D:
    comp = spatial_component(packet)
    if t_elapsed == 0.0:
        return comp
    return propagate_component(comp, 1.0, t_elapsed)


def propagate_schrodinger(packet: GaussianSpatialPacket, t_elapsed: float,
                          engine: str = CLOSED_FORM,
                          grid: Grid1D | None = None) -> PropagationResult:
    """Spread-and-drift evolution of the spatial Gaussian by t_elapsed."""
    if t_elapsed < 0:
        raise DomainError("t_elapsed must be >= 0")
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}")
    if grid is None:
        grid = Grid1D(*_output_x(packet, t_elapsed))
    if t_elapsed == 0.0:
        field = spatial_component(packet)(grid.x)
        n2 = float(simpson_weights(grid.n_x, grid.dx) @ np.abs(field) ** 2)
        return PropagationResult(spatial=field, grid=grid, norm_before=n2,
                                 norm_after=n2, engine=engine)
    spatial, norms = _spatial_factor(packet, grid.x, t_elapsed, engine)
    n_before, n_after = norms()
    return PropagationResult(spatial=spatial, grid=grid, norm_before=n_before,
                             norm_after=n_after, engine=engine)


# -------------------------------------------------------- Floquet/Stueckelberg

def _time_axis(packet: SpacetimePacket, mu_t: float | None, s: float) -> tuple:
    """(lo, hi, n) of the automatic time axis and the gate components spread
    by s (none under the time shift). The axis samples the narrowest feature
    of the temporal intensity. That is the gate width under the time shift.
    Under covariant spreading it is the spread envelope's sigma or the fringe
    period 2 pi / |Im(b_j - b_k)| of the cross terms, whichever is shorter;
    the phase of T_j conj(T_k) is exactly linear in t for gates of one
    width. The chirp common to all gates cancels in the intensity."""
    if mu_t is None:
        lo = min(g.center_t - 1.25 * OUTPUT_PAD_SIGMAS * g.width_delta_t
                 for g in packet.gates) + s
        hi = max(g.center_t + 1.25 * OUTPUT_PAD_SIGMAS * g.width_delta_t
                 for g in packet.gates) + s
        spread = []
        n = time_samples(hi - lo, min(g.width_delta_t for g in packet.gates),
                         "gates of width")
    else:
        spread = [propagate_component(gate_component(
            g, packet.mean_energy_E0), mu_t, s) for g in packet.gates]
        lo, hi = _padded_range(spread)
        rates = [float(cp.b.imag) for cp in spread]
        beat = max(rates) - min(rates)
        period = 2.0 * math.pi / beat if beat else math.inf
        n = time_samples(hi - lo,
                         min(period, *(cp.intensity_sigma for cp in spread)),
                         "intensity features of width")
    if not lo < hi:
        raise DomainError(f"the time axis [{lo:g}, {hi:g}] has no width in "
                          "floating point")
    return lo, hi, n, spread


def auto_output_grid(packet: SpacetimePacket, theory: str,
                     s: float) -> Grid2D:
    """Grid covering the propagated envelope: x resolves its chirp, and t
    the narrowest feature of the temporal intensity (_time_axis)."""
    mu_t = time_mass(theory)
    lo_x, hi_x, n_x = _output_x(packet.spatial, s)
    lo_t, hi_t, n_t, _ = _time_axis(packet, mu_t, s)
    return Grid2D(lo_x, hi_x, n_x, lo_t, hi_t, n_t)


def _temporal_factor(packet: SpacetimePacket, mu_t: float | None, s: float,
                     engine: str, t: np.ndarray, spread: list = ()) -> tuple:
    """The gate terms T_k on the time axis t after propagation by s, and a
    function returning the norm^2 of their sum before and after. Each gate
    is shifted rigidly by s (exact under either engine) or spread with mass
    -M c^2; in closed form, spread may hold them already spread by s."""
    if mu_t is None:
        return (packet.gate_terms(t - s),
                lambda: (packet.temporal_norm2(),) * 2)
    if engine == CLOSED_FORM:
        gates = [gate_component(g, packet.mean_energy_E0)
                 for g in packet.gates]
        spread = spread or [propagate_component(cp, mu_t, s) for cp in gates]
        return _closed_form_axis(gates, spread, t, t[0], t[-1])
    lo = min(g.center_t - INPUT_PAD_SIGMAS * g.width_delta_t
             for g in packet.gates)
    hi = max(g.center_t + INPUT_PAD_SIGMAS * g.width_delta_t
             for g in packet.gates)
    values, before, after = _quadrature_axis(
        packet.gate_terms, t, lo, hi, 513, mu_t, s,
        abs(packet.mean_energy_E0), "t")
    return values, lambda: (before, after)


def propagate_spacetime(packet: SpacetimePacket, theory: str, s: float,
                        engine: str = CLOSED_FORM,
                        grid: Grid2D | None = None) -> PropagationResult:
    """Propagate a space-time packet by s under the time-shift (Floquet) or
    covariant (Stueckelberg) theory. The field stays rank-1: the spatial
    factor spreads with mass M under both, and each gate is either shifted
    rigidly by s or spread with mass -M c^2."""
    if s <= 0:
        raise DomainError("s must be > 0")
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}")
    mu_t = time_mass(theory)
    if grid is None:
        grid = auto_output_grid(packet, theory, s)
    spatial, x_norms = _spatial_factor(packet.spatial, grid.x, s, engine)
    temporal, t_norms = _temporal_factor(packet, mu_t, s, engine, grid.t)
    (nx_before, nx_after), (nt_before, nt_after) = x_norms(), t_norms()
    return PropagationResult(spatial=spatial, temporal=tuple(temporal),
                             grid=grid, norm_before=nx_before * nt_before,
                             norm_after=nx_after * nt_after, engine=engine)


def read_detector(packet: SpacetimePacket, theory: str, s: float,
                  engine: str, x_d: float) -> tuple:
    """propagate_spacetime on the automatic grid, read at x = x_d: X(x_d),
    the time axis, the T_k on it and a function returning the norm drift.
    The closed form spreads each Gaussian once and builds no x axis; by
    quadrature, X(x_d) is the Simpson kernel sum over the x grid's inputs."""
    mu_t = time_mass(theory)
    spatial = packet.spatial
    if engine == CLOSED_FORM:
        comp = spatial_component(spatial)
        moved = propagate_component(comp, 1.0, s)
        lo_x, hi_x = _padded_range([moved])
    else:
        lo_x, hi_x, n_x = _output_x(spatial, s)
    lo_t, hi_t, n_t, spread = _time_axis(packet, mu_t, s)
    if not lo_x <= x_d <= hi_x:
        raise DomainError(f"detector_x = {x_d:g} lies outside the x range "
                          f"[{lo_x:g}, {hi_x:g}] of the spread packet")
    t = _axis(lo_t, hi_t, n_t)
    if engine == CLOSED_FORM:
        (x_value,), x_norms = _closed_form_axis([comp], [moved], x_d, lo_x,
                                                hi_x)
    else:
        x_value, x_norms = _spatial_factor(spatial, _axis(lo_x, hi_x, n_x),
                                           s, engine, at=x_d)
    temporal, t_norms = _temporal_factor(packet, mu_t, s, engine, t, spread)

    def drift() -> float:  # PropagationResult.norm_drift
        (x_before, x_after), (t_before, t_after) = x_norms(), t_norms()
        return (abs(x_after * t_after - x_before * t_before)
                / (x_before * t_before))
    return x_value, t, temporal, drift


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

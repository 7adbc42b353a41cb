"""Kernel application: a closed-form complex-Gaussian engine (fast path and
oracle) and a Simpson quadrature engine (general path), plus Hamilton-relation
drift diagnostics.

The closed-form engine rests on one completed-square integral,

    int dx' C exp(i beta (x-x')^2) exp(-a x'^2 + b x')
        = C sqrt(pi/gamma) exp(i beta x^2 + (b - 2 i beta x)^2 / (4 gamma)),
    gamma = a - i beta,

applied once per axis (the covariant kernel factorizes, with effective mass
-M c^2 on the time axis). Components carry log-amplitudes so widely displaced
gates never overflow intermediate exponentials.

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
                      SpacetimePacket, expectations)

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
ENGINES = (CLOSED_FORM, QUADRATURE)

SCHRODINGER = "schrodinger_control"
FLOQUET = "floquet"
STUECKELBERG = "stueckelberg"
THEORIES = (SCHRODINGER, FLOQUET, STUECKELBERG)

MIN_SAMPLES_PER_CYCLE = 8  # below this the quadrature silently decoheres
# most samples on one grid axis: about 16 MB per complex array of one axis
MAX_AXIS_SAMPLES = 2**20


def axis_prefactor(mu: float, s, hbar: float = 1.0):
    """Per-axis kernel normalization sqrt(mu/(2 pi i hbar s)). The principal
    complex square root fixes the branch and gives K(-s) = conj(K(s))."""
    return np.sqrt(mu / (2j * np.pi * hbar * np.asarray(s, dtype=complex)))


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


def propagate_component(comp: GaussianComponent1D, mu: float, s,
                        hbar: float = 1.0) -> GaussianComponent1D:
    """Apply the per-axis kernel with effective mass mu for parameter s
    (a number, or an array of them)."""
    beta = mu / (2.0 * hbar * s)
    gamma = comp.a - 1j * beta
    if np.any(gamma.real <= 0):
        raise DomainError("non-normalizable component: Re(gamma) <= 0")
    a_new = -1j * beta + beta * beta / gamma
    if np.any(a_new.real <= 0):  # the spread width is past the float range
        raise DomainError(f"envelope spread over s = {np.max(s):g} leaves "
                          "the float range: Re(a) underflows to 0")
    log_c = np.log(axis_prefactor(mu, s, hbar))
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


def spatial_component(packet: GaussianSpatialPacket,
                      hbar: float = 1.0) -> GaussianComponent1D:
    return gaussian_component(packet.center_x, packet.width_sigma_x,
                              packet.mean_momentum_p0 / hbar,
                              logamp=1j * packet.global_phase)


def gate_component(gate, mean_energy: float,
                   hbar: float = 1.0) -> GaussianComponent1D:
    if gate.profile != GAUSSIAN:
        raise DomainError("closed-form engine handles Gaussian gates only")
    amp = complex(gate.amplitude)
    if amp == 0:
        raise DomainError("zero-amplitude gate has no log-amplitude")
    comp = gaussian_component(gate.center_t, gate.width_delta_t,
                              -mean_energy / hbar, logamp=np.log(amp))
    # gate envelopes are not individually normalized
    return GaussianComponent1D(
        logamp=comp.logamp + 0.25 * math.log(math.pi * gate.width_delta_t**2),
        a=comp.a, b=comp.b)


def time_mass(theory: str, mass: float = 1.0, c: float = 1.0) -> float | None:
    """The theory's time rule: spreading each gate with effective mass
    -M c^2 (covariant), or None for a rigid shift by s (time-shift)."""
    if theory == FLOQUET:
        return None
    if theory == STUECKELBERG:
        return -mass * c * c
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
    return _odd(max(33, int(math.ceil(cycles * samples_per_cycle)) + 1))


def _closed_form_axis(comps: list, out: np.ndarray, mu: float, s: float,
                      hbar: float):
    """Propagate the Gaussian components of one axis in closed form: their
    values on out and the exact norm^2 of their sum before and after."""
    moved = [propagate_component(cp, mu, s, hbar) for cp in comps]
    before, after = (float(sum(component_overlap(f, g)
                               for f in cs for g in cs).real)
                     for cs in (comps, moved))
    return [m(out) for m in moved], before, after


def _quadrature_axis(sources, out: np.ndarray, lo: float, hi: float,
                     n_in: int, grow: bool, mu: float, s: float, hbar: float,
                     k0: float, samples_per_cycle: float, axis: str):
    """Propagate the functions sources(u) of one axis by Simpson quadrature
    over n_in samples u of [lo, hi], raised to resolve the kernel chirp when
    grow is set: their values on the uniform grid out and the grid norm^2 of
    their sum before and after. k0 is the largest wavenumber of the input
    functions.

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
    k_max = (abs(mu) * max(abs(out[-1] - lo), abs(out[0] - hi))
             / (hbar * s) + k0)
    span = hi - lo
    if grow:
        n_in = max(n_in, _required_samples(k_max, span, samples_per_cycle))
    h = span / (n_in - 1)
    if k_max * h > 2.0 * math.pi / MIN_SAMPLES_PER_CYCLE:
        need = _required_samples(k_max, span, MIN_SAMPLES_PER_CYCLE)
        raise ResolutionError(
            f"{axis} grid gives {2 * math.pi / (k_max * h):.2f} samples per "
            f"kernel-phase cycle (< {MIN_SAMPLES_PER_CYCLE}); need n >= {need}",
            **{f"required_n_{axis}": need})
    u = np.linspace(lo, hi, n_in)
    values_in = sources(u)
    w_in = simpson_weights(n_in, u[1] - u[0])
    n_out = len(out)
    dx = (out[-1] - out[0]) / (n_out - 1)
    beta = mu / (2.0 * hbar * s)
    d = out[0] - lo
    i = np.arange(n_out)
    j = np.arange(n_in)
    k = np.arange(1 - n_in, n_out)
    pre = complex(axis_prefactor(mu, s, hbar)) * np.exp(
        1j * beta * (d * d + (2.0 * d * dx + (dx * dx - dx * h) * i) * i))
    post = w_in * np.exp(1j * beta * ((h * h - dx * h) * j - 2.0 * d * h) * j)
    n_fft = 1 << (n_out + n_in - 2).bit_length()
    spectrum = (np.fft.fft(np.exp(1j * beta * dx * h * k * k), n_fft)
                * np.fft.fft(np.asarray(values_in) * post, n_fft))
    values = list(np.fft.ifft(spectrum)[:, n_in - 1:n_in - 1 + n_out] * pre)
    w_out = simpson_weights(n_out, out[1] - out[0])
    return (values, float(w_in @ np.abs(sum(values_in)) ** 2),
            float(w_out @ np.abs(sum(values)) ** 2))


def _spatial_factor(spatial: GaussianSpatialPacket, x: np.ndarray, s: float,
                    engine: str, input_grid, grow: bool, mass: float,
                    hbar: float, samples_per_cycle: float):
    """X(x) after spreading with mass M for s, and its norm^2 before/after."""
    if engine == CLOSED_FORM:
        (values,), before, after = _closed_form_axis(
            [spatial_component(spatial, hbar)], x, mass, s, hbar)
    else:
        (values,), before, after = _quadrature_axis(
            lambda u: [spatial.amplitude(u, hbar)], x, input_grid.x_min,
            input_grid.x_max, input_grid.n_x, grow, mass, s, hbar,
            abs(spatial.mean_momentum_p0) / hbar, samples_per_cycle, "x")
    return values, before, after


# ---------------------------------------------------------------- Schrodinger

def schrodinger_closed_form(packet: GaussianSpatialPacket, t_elapsed: float,
                            mass: float = 1.0,
                            hbar: float = 1.0) -> GaussianComponent1D:
    comp = spatial_component(packet, hbar)
    if t_elapsed == 0.0:
        return comp
    return propagate_component(comp, mass, t_elapsed, hbar)


def _auto_grid_1d(packet: GaussianSpatialPacket, t_elapsed: float,
                  mass: float = 1.0, hbar: float = 1.0,
                  pad_sigmas: float = 6.5) -> Grid1D:
    comp = schrodinger_closed_form(packet, t_elapsed, mass, hbar)
    mean, sig = comp.intensity_mean, comp.intensity_sigma
    lo = min(mean - pad_sigmas * sig,
             packet.center_x - pad_sigmas * packet.width_sigma_x)
    hi = max(mean + pad_sigmas * sig,
             packet.center_x + pad_sigmas * packet.width_sigma_x)
    k_max = (abs(mass) * (hi - lo) / (hbar * abs(t_elapsed))
             if t_elapsed else 0.0)
    k_max += abs(packet.mean_momentum_p0) / hbar
    return Grid1D(x_min=lo, x_max=hi,
                  n_x=_required_samples(k_max, hi - lo, 16.0))


def propagate_schrodinger(packet: GaussianSpatialPacket, t_elapsed: float,
                          engine: str = CLOSED_FORM,
                          grid: Grid1D | None = None,
                          input_grid: Grid1D | None = None, mass: float = 1.0,
                          hbar: float = 1.0,
                          samples_per_cycle: float = 48.0) -> PropagationResult:
    """Spread-and-drift evolution of the spatial Gaussian by t_elapsed."""
    if t_elapsed < 0:
        raise DomainError("t_elapsed must be >= 0")
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}")
    if grid is None:
        grid = _auto_grid_1d(packet, t_elapsed, mass, hbar)
    if t_elapsed == 0.0:
        field = spatial_component(packet, hbar)(grid.x)
        n2 = float(simpson_weights(grid.n_x, grid.dx) @ np.abs(field) ** 2)
        return PropagationResult(spatial=field, grid=grid, norm_before=n2,
                                 norm_after=n2, engine=engine)
    lo = packet.center_x - 7.5 * packet.width_sigma_x
    hi = packet.center_x + 7.5 * packet.width_sigma_x
    spatial, n_before, n_after = _spatial_factor(
        packet, grid.x, t_elapsed, engine,
        input_grid or Grid1D(lo, hi, 513), input_grid is None, mass, hbar,
        samples_per_cycle)
    return PropagationResult(spatial=spatial, grid=grid, norm_before=n_before,
                             norm_after=n_after, engine=engine)


# -------------------------------------------------------- Floquet/Stueckelberg

def auto_input_grid(packet: SpacetimePacket,
                    pad_sigmas: float = 7.5) -> Grid2D:
    w_x = packet.spatial.width_sigma_x
    lo_x = packet.spatial.center_x - pad_sigmas * w_x
    hi_x = packet.spatial.center_x + pad_sigmas * w_x
    lo_t = min(g.center_t - pad_sigmas * g.width_delta_t for g in packet.gates)
    hi_t = max(g.center_t + pad_sigmas * g.width_delta_t for g in packet.gates)
    return Grid2D(lo_x, hi_x, 513, lo_t, hi_t, 513)


def auto_output_grid(packet: SpacetimePacket, theory: str, s: float,
                     mass: float = 1.0, c: float = 1.0, hbar: float = 1.0,
                     n_x: int | None = None, n_t: int | None = None,
                     pad_sigmas: float = 6.5,
                     samples_per_cycle: float = 16.0) -> Grid2D:
    """Grid covering the propagated envelope and resolving its chirp."""
    mu_t = time_mass(theory, mass, c)
    xc = propagate_component(spatial_component(packet.spatial, hbar),
                             mass, s, hbar)
    lo_x = xc.intensity_mean - pad_sigmas * xc.intensity_sigma
    hi_x = xc.intensity_mean + pad_sigmas * xc.intensity_sigma
    if mu_t is None:
        lo_t = min(g.center_t - 1.25 * pad_sigmas * g.width_delta_t
                   for g in packet.gates) + s
        hi_t = max(g.center_t + 1.25 * pad_sigmas * g.width_delta_t
                   for g in packet.gates) + s
        if n_t is None:
            w_min = min(g.width_delta_t for g in packet.gates)
            n_t = _odd(max(129, int(math.ceil((hi_t - lo_t) / (w_min / 12.0)))))
            if n_t > MAX_AXIS_SAMPLES:
                raise ResolutionError(
                    f"resolving gates of width {w_min:g} over a span of "
                    f"{hi_t - lo_t:g} needs n_t = {n_t}, above the ceiling "
                    f"of {MAX_AXIS_SAMPLES}", required_n_t=n_t)
    else:
        tcs = [propagate_component(gate_component(g, packet.mean_energy_E0, hbar),
                                   mu_t, s, hbar)
               for g in packet.gates]
        lo_t = min(tc.intensity_mean - pad_sigmas * tc.intensity_sigma
                   for tc in tcs)
        hi_t = max(tc.intensity_mean + pad_sigmas * tc.intensity_sigma
                   for tc in tcs)
        if n_t is None:
            k_max = (abs(mu_t) * (hi_t - lo_t) / (hbar * abs(s))
                     + abs(packet.mean_energy_E0) / hbar)
            n_t = min(2048, _required_samples(k_max, hi_t - lo_t,
                                              samples_per_cycle))
    if n_x is None:
        k_max = (abs(mass) * (hi_x - lo_x) / (hbar * abs(s))
                 + abs(packet.spatial.mean_momentum_p0) / hbar)
        n_x = min(2048, _required_samples(k_max, hi_x - lo_x, samples_per_cycle))
    return Grid2D(lo_x, hi_x, n_x, lo_t, hi_t, n_t)


def propagate_spacetime(packet: SpacetimePacket, theory: str, s: float,
                        engine: str = CLOSED_FORM, grid: Grid2D | None = None,
                        input_grid: Grid2D | None = None, mass: float = 1.0,
                        c: float = 1.0, hbar: float = 1.0,
                        samples_per_cycle: float = 48.0) -> PropagationResult:
    """Propagate a space-time packet by s under the time-shift (Floquet) or
    covariant (Stueckelberg) theory. The field stays rank-1: the spatial
    factor spreads with mass M under both, and each gate is either shifted
    rigidly by s (exact under either engine) or spread with mass -M c^2."""
    if s <= 0:
        raise DomainError("s must be > 0")
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}")
    mu_t = time_mass(theory, mass, c)
    if grid is None:
        grid = auto_output_grid(packet, theory, s, mass, c, hbar)
    grow = input_grid is None
    ig = auto_input_grid(packet) if grow else input_grid
    spatial, nx_before, nx_after = _spatial_factor(
        packet.spatial, grid.x, s, engine, ig, grow, mass, hbar,
        samples_per_cycle)
    if mu_t is None:
        temporal = packet.gate_terms(grid.t - s, hbar)
        nt_before = nt_after = packet.temporal_norm2()
    elif engine == CLOSED_FORM:
        temporal, nt_before, nt_after = _closed_form_axis(
            [gate_component(g, packet.mean_energy_E0, hbar)
             for g in packet.gates], grid.t, mu_t, s, hbar)
    else:
        temporal, nt_before, nt_after = _quadrature_axis(
            lambda u: packet.gate_terms(u, hbar), grid.t, ig.t_min, ig.t_max,
            ig.n_t, grow, mu_t, s, hbar, abs(packet.mean_energy_E0) / hbar,
            samples_per_cycle, "t")
    return PropagationResult(spatial=spatial, temporal=tuple(temporal),
                             grid=grid, norm_before=nx_before * nt_before,
                             norm_after=nx_after * nt_after, engine=engine)


def propagate_floquet(packet: SpacetimePacket, delta_s: float,
                      engine: str = CLOSED_FORM, grid: Grid2D | None = None,
                      input_grid: Grid2D | None = None, mass: float = 1.0,
                      hbar: float = 1.0,
                      samples_per_cycle: float = 48.0) -> PropagationResult:
    """Exact time shift by delta_s composed with spatial free propagation:
    the temporal intensity marginal shifts without changing shape."""
    return propagate_spacetime(packet, FLOQUET, delta_s, engine, grid,
                               input_grid, mass, 1.0, hbar, samples_per_cycle)


def propagate_stueckelberg(packet: SpacetimePacket, s_elapsed: float,
                           engine: str = CLOSED_FORM,
                           grid: Grid2D | None = None,
                           input_grid: Grid2D | None = None, mass: float = 1.0,
                           c: float = 1.0, hbar: float = 1.0,
                           samples_per_cycle: float = 48.0) -> PropagationResult:
    """Covariant evolution: both axes spread, the time axis with effective
    mass -M c^2, which is what chirps the gates and produces temporal fringes."""
    return propagate_spacetime(packet, STUECKELBERG, s_elapsed, engine, grid,
                               input_grid, mass, c, hbar, samples_per_cycle)


def hamilton_diagnostics(packet: SpacetimePacket, theory: str, s_samples,
                         mass: float = 1.0, c: float = 1.0,
                         hbar: float = 1.0) -> HamiltonDiagnostics:
    """Least-squares drift slopes of <x>(s) and <t>(s) against the
    predictions p0/M and E0/(M c^2) (dt/ds = 1 for the time-shift theory)."""
    s_samples = list(s_samples)
    if len(s_samples) < 3:
        raise DomainError("need at least 3 s samples")
    if len(set(s_samples)) < 3:
        raise DomainError("degenerate s samples")
    means_x, means_t = [], []
    for s in s_samples:
        res = propagate_spacetime(packet, theory, s, CLOSED_FORM,
                                  mass=mass, c=c, hbar=hbar)
        mom = expectations(res.field, res.grid, hbar)
        means_x.append(mom.mean_x)
        means_t.append(mom.mean_t)
    sx = float(np.polyfit(s_samples, means_x, 1)[0])
    st = float(np.polyfit(s_samples, means_t, 1)[0])
    mu_t = time_mass(theory, mass, c)
    pred_t = 1.0 if mu_t is None else -packet.mean_energy_E0 / mu_t
    return HamiltonDiagnostics(
        slope_x=sx, slope_t=st,
        predicted_slope_x=packet.spatial.mean_momentum_p0 / mass,
        predicted_slope_t=pred_t)

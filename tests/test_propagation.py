import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefringe.errors import DomainError
from timefringe.experiments import DESK_SCALE, build_packet
from timefringe.numerics import simpson_weights
from timefringe.packets import (GaussianSpatialPacket, Grid1D,
                                SpacetimePacket, TimeGate)
from timefringe.propagation import (CLOSED_FORM, FLOQUET, QUADRATURE,
                                    STUECKELBERG, GaussianComponent1D,
                                    _quadrature_axis,
                                    auto_output_grid, axis_prefactor,
                                    component_overlap, gate_component,
                                    gaussian_component, hamilton_diagnostics,
                                    propagate_component, propagate_floquet,
                                    propagate_schrodinger, propagate_spacetime,
                                    propagate_stueckelberg, spatial_component)

MASS = 1.0


def two_gate_packet(spacing=12.0, gate_width=0.5, spatial_width=5.0,
                    p0=0.2, e0=1.02):
    return SpacetimePacket(
        spatial=GaussianSpatialPacket(0.0, spatial_width, p0),
        gates=(TimeGate(0.0, gate_width), TimeGate(spacing, gate_width)),
        mean_energy_E0=e0).normalized()


def rel_l2(a, b):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)
                         / np.sum(np.abs(b) ** 2)))


class TestSchrodinger:
    def test_spreading_law(self):
        # intensity sigma grows as (w / sqrt 2) sqrt(1 + (hbar t / m w^2)^2)
        w = 1.0
        pk = GaussianSpatialPacket(0.0, w, 0.0)
        for t in (0.5, 2.0, 10.0):
            comp = propagate_component(spatial_component(pk), 1.0, t)
            expected = (w / math.sqrt(2)) * math.sqrt(1 + (t / w**2) ** 2)
            assert comp.intensity_sigma == pytest.approx(expected, rel=1e-12)

    def test_drift_at_group_velocity(self):
        pk = GaussianSpatialPacket(0.0, 1.0, 0.7)
        comp = propagate_component(spatial_component(pk), 1.0, 3.0)
        assert comp.intensity_mean == pytest.approx(0.7 * 3.0, rel=1e-12)

    def test_norm_preserved_closed_form(self):
        pk = GaussianSpatialPacket(0.0, 1.0, 0.5)
        res = propagate_schrodinger(pk, 4.0)
        assert res.norm_drift < 1e-12

    def test_engines_agree(self):
        pk = GaussianSpatialPacket(0.0, 1.0, 0.5)
        grid = Grid1D(-18.0, 22.0, 1601)
        cf = propagate_schrodinger(pk, 4.0, CLOSED_FORM, grid=grid)
        qd = propagate_schrodinger(pk, 4.0, QUADRATURE, grid=grid)
        assert rel_l2(qd.field, cf.field) < 1e-6
        assert qd.norm_drift < 1e-6

    def test_rejects_negative_time_and_bad_engine(self):
        pk = GaussianSpatialPacket()
        for t in (-1.0, 0.0):  # like propagate_spacetime at s <= 0
            with pytest.raises(DomainError, match="t_elapsed must be > 0"):
                propagate_schrodinger(pk, t)
        with pytest.raises(DomainError):
            propagate_schrodinger(pk, 1.0, engine="spectral")


class TestFloquet:
    def test_temporal_marginal_rigidly_shifted(self):
        pk = two_gate_packet()
        s = 10.0
        res = propagate_floquet(pk, s)
        t = res.grid.t
        wx = simpson_weights(res.grid.n_x, res.grid.dx)
        wt = simpson_weights(res.grid.n_t, res.grid.dt)
        marginal = wx @ (np.abs(res.field) ** 2)
        reference = np.abs(pk.gate_sum(t - s)) ** 2
        marginal /= wt @ marginal
        reference /= wt @ reference
        assert float(np.max(np.abs(marginal - reference))) < 1e-9

    def test_norm_drift_both_engines(self):
        pk = two_gate_packet()
        for engine in (CLOSED_FORM, QUADRATURE):
            res = propagate_floquet(pk, 10.0, engine)
            assert res.norm_drift < 1e-6

    def test_engines_agree(self):
        pk = two_gate_packet()
        grid = auto_output_grid(pk, FLOQUET, 10.0)
        cf = propagate_floquet(pk, 10.0, CLOSED_FORM, grid=grid)
        qd = propagate_floquet(pk, 10.0, QUADRATURE, grid=grid)
        assert rel_l2(qd.field, cf.field) < 1e-6

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(DomainError):
            propagate_floquet(two_gate_packet(), 0.0)

    def test_drift_slope_is_unity(self):
        diag = hamilton_diagnostics(two_gate_packet(), FLOQUET,
                                    [8.0, 10.0, 12.0])
        assert diag.predicted_slope_t == 1.0
        assert diag.slope_t == pytest.approx(1.0, rel=1e-3)
        assert diag.slope_x == pytest.approx(diag.predicted_slope_x, rel=1e-3)


class TestStueckelberg:
    def test_norm_drift_both_engines(self):
        pk = two_gate_packet()
        for engine in (CLOSED_FORM, QUADRATURE):
            res = propagate_stueckelberg(pk, 10.0, engine)
            assert res.norm_drift < 1e-6

    def test_engines_agree(self):
        pk = two_gate_packet()
        grid = auto_output_grid(pk, STUECKELBERG, 10.0)
        cf = propagate_stueckelberg(pk, 10.0, CLOSED_FORM, grid=grid)
        qd = propagate_stueckelberg(pk, 10.0, QUADRATURE, grid=grid)
        assert rel_l2(qd.field, cf.field) < 1e-6

    def test_closed_form_norm_matches_grid_quadrature(self):
        pk = two_gate_packet()
        res = propagate_stueckelberg(pk, 10.0, CLOSED_FORM)
        assert res.norm_before == pytest.approx(1.0, rel=1e-12)
        assert res.norm_after == pytest.approx(1.0, rel=1e-9)

    def test_hamilton_slopes(self):
        pk = two_gate_packet()
        diag = hamilton_diagnostics(pk, STUECKELBERG, [8.0, 10.0, 12.0])
        assert diag.predicted_slope_x == pytest.approx(0.2, rel=1e-12)
        assert diag.predicted_slope_t == pytest.approx(1.02, rel=1e-12)
        assert diag.slope_x == pytest.approx(diag.predicted_slope_x, rel=1e-3)
        assert diag.slope_t == pytest.approx(diag.predicted_slope_t, rel=1e-3)

    def test_time_axis_spreads_gates(self):
        # the covariant evolution chirps the gate envelopes: temporal sigma
        # of a single gate grows by the same law as a spatial Gaussian with
        # effective mass M c^2
        w = 0.5
        pk = SpacetimePacket(
            spatial=GaussianSpatialPacket(0.0, 5.0, 0.2),
            gates=(TimeGate(0.0, w),), mean_energy_E0=1.02).normalized()
        s = 10.0
        res = propagate_stueckelberg(pk, s, CLOSED_FORM)
        t = res.grid.t
        weights = (simpson_weights(res.grid.n_t, res.grid.dt)
                   * np.abs(sum(res.temporal)) ** 2)
        mean_t = float(weights @ t) / float(np.sum(weights))
        var_t = float(weights @ (t - mean_t) ** 2) / float(np.sum(weights))
        expected = (w / math.sqrt(2)) * math.sqrt(1 + (s / w**2) ** 2)
        assert math.sqrt(var_t) == pytest.approx(expected, rel=1e-3)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            propagate_stueckelberg(two_gate_packet(), -2.0)


def field_moment_slopes(packet, theory, s_samples):
    """Drift slopes from Simpson moments of the full n_x x n_t field."""
    means_x, means_t = [], []
    for s in s_samples:
        res = propagate_spacetime(packet, theory, s, CLOSED_FORM)
        g = res.grid
        intensity = np.abs(res.field) ** 2
        wx = simpson_weights(g.n_x, g.dx)
        wt = simpson_weights(g.n_t, g.dt)
        n2 = float(wx @ intensity @ wt)
        means_x.append(float((wx * g.x) @ intensity @ wt) / n2)
        means_t.append(float(wx @ intensity @ (wt * g.t)) / n2)
    return (float(np.polyfit(s_samples, means_x, 1)[0]),
            float(np.polyfit(s_samples, means_t, 1)[0]))


class TestHamiltonMoments:
    @settings(max_examples=30, deadline=None)
    @given(eps=st.floats(0.0, 24.0), flight=st.floats(1.0, 4.0),
           width=st.floats(0.3, 1.0), momentum=st.floats(0.1, 0.4),
           theory=st.sampled_from([FLOQUET, STUECKELBERG]))
    def test_factor_moments_match_field_moments(self, eps, flight, width,
                                                momentum, theory):
        cfg = replace(DESK_SCALE, gate_spacing=eps, flight_distance=flight,
                      gate_width=width, momentum=momentum)
        s_samples = [f * cfg.s_star for f in (0.8, 1.0, 1.2)]
        packet = build_packet(cfg)
        diag = hamilton_diagnostics(packet, theory, s_samples)
        want_x, want_t = field_moment_slopes(packet, theory, s_samples)
        assert diag.slope_x == pytest.approx(want_x, rel=1e-12)
        assert diag.slope_t == pytest.approx(want_t, rel=1e-12)


class TestQuadratureAxis:
    @pytest.mark.parametrize("out,n_in,mu,s,centers", [
        (np.linspace(-8.0, 10.0, 301), 201, 1.0, 20.0, [0.0]),   # n_out > n_in
        (np.linspace(-3.0, 4.0, 97), 401, -1.0, 20.0, [0.0]),    # n_out < n_in
        (np.linspace(40.0, 60.0, 257), 301, 1.0, 50.0, [0.0]),   # far away
        # two sources; n_out + n_in - 1 = 513 needs an FFT of length 1024
        (np.linspace(-6.0, 9.0, 257), 257, -1.0, 30.0, [-1.5, 2.0]),
    ])
    def test_matches_dense_simpson_sum(self, out, n_in, mu, s, centers):
        lo, hi, k0 = -5.0, 5.0, 1.0

        def sources(u):
            return [np.exp(-(u - c) ** 2 / 2.0 + 1j * k0 * u)
                    for c in centers]

        values, before, after = _quadrature_axis(
            sources, out, lo, hi, n_in, mu, s, k0, "x")
        u = np.linspace(lo, hi, n_in)
        w_in = simpson_weights(n_in, u[1] - u[0])
        kernel = axis_prefactor(mu, s) * np.exp(
            1j * mu * np.subtract.outer(out, u) ** 2 / (2.0 * s))
        reference = [kernel @ (w_in * v) for v in sources(u)]
        assert len(values) == len(reference)
        for got, want in zip(values, reference):
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-12
        w_out = simpson_weights(len(out), out[1] - out[0])
        assert before == float(w_in @ np.abs(sum(sources(u))) ** 2)
        assert after == pytest.approx(
            float(w_out @ np.abs(sum(reference)) ** 2), rel=1e-12)


class TestComponentAlgebra:
    def test_intensity_moments_of_component(self):
        for comp in (
                gaussian_component(center=1.5, width=0.7, wavenumber=2.0),
                # a gate of amplitude width w has intensity sigma w / sqrt 2
                gate_component(TimeGate(center_t=1.5, width_delta_t=0.7),
                               1.02)):
            assert comp.intensity_mean == pytest.approx(1.5, rel=1e-12)
            assert comp.intensity_sigma == pytest.approx(0.7 / math.sqrt(2),
                                                         rel=1e-12)

    def test_displaced_component_no_overflow(self):
        # widely displaced gates must survive the log-amplitude bookkeeping
        comp = gaussian_component(center=4000.0, width=0.5, wavenumber=0.0)
        out = propagate_component(comp, -1.0, 10.0)
        assert np.isfinite(out.logamp)
        assert np.isfinite(out(4000.0))

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    @pytest.mark.parametrize("s", [0.07, 0.3, 10.0, 2e4])
    def test_number_and_array_paths_agree(self, mu, s):
        # a number takes cmath on Python complex numbers, an array numpy.
        # The log-amplitude of a displaced gate is a difference of terms
        # near b^2 / 4a, so it is compared to their size
        for comp in (
                spatial_component(GaussianSpatialPacket(1.5, 5.0, 0.2)),
                gate_component(TimeGate(center_t=0.0, width_delta_t=0.5),
                               1.02),
                gate_component(TimeGate(center_t=12.0, width_delta_t=0.5),
                               1.02)):
            one = propagate_component(comp, mu, s)
            many = propagate_component(comp, mu, np.array([s]))
            terms = abs(comp.logamp) + abs(comp.b) ** 2 / (4 * abs(comp.a))
            for name, size in (("logamp", terms), ("a", 0.0), ("b", 0.0)):
                got, want = getattr(one, name), complex(getattr(many, name)[0])
                assert type(got) is complex
                assert abs(got - want) <= 1e-15 * max(abs(want), size)

    @pytest.mark.parametrize("a,s,message", [
        (-1.0, 10.0, "non-normalizable component: Re(gamma) <= 0"),
        # 1 / 2s overflows, so Re(gamma) is NaN: it must reach the
        # float-range check, which names s
        (0.02, 5e-324, "envelope spread over s = 4.94066e-324 leaves"),
        (0.02, 1e-300, "envelope spread over s = 1e-300 leaves"),
    ])
    def test_number_and_array_paths_raise_alike(self, a, s, message):
        comp = GaussianComponent1D(logamp=0j, a=complex(a), b=0.2j)
        for arg in (s, np.array([s])):
            with (np.errstate(all="ignore"),
                  pytest.raises(DomainError, match=re.escape(message))):
                propagate_component(comp, 1.0, arg)

    def test_hamilton_needs_three_samples(self):
        with pytest.raises(DomainError):
            hamilton_diagnostics(two_gate_packet(), STUECKELBERG, [1.0, 2.0])


class TestAxisPrefactor:
    def test_modulus(self):
        # |sqrt(mu / 2 pi i hbar s)| = sqrt(|mu| / 2 pi hbar |s|)
        for mu, s in [(1.0, 0.7), (2.5, -0.3), (-1.0, 0.7)]:
            expected = math.sqrt(abs(mu) / (2 * math.pi * abs(s)))
            assert abs(axis_prefactor(mu, s)) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_negative_s_conjugates(self):
        p = complex(axis_prefactor(1.0, 0.4))
        m = complex(axis_prefactor(1.0, -0.4))
        assert m == pytest.approx(np.conj(p), rel=1e-12)


class TestIdentityLimit:
    @pytest.mark.parametrize("mu", [MASS, -MASS])
    def test_deviation_halves_with_s(self, mu):
        # first-order convergence to the input as s -> 0, for a spatial
        # axis (mass M) and the covariant time axis (mass -M c^2)
        comp = gaussian_component(center=0.0, width=1.0)
        u = np.linspace(-8.0, 8.0, 2001)
        devs = [rel_l2(propagate_component(comp, mu, 1e-3 / 2**k)(u),
                       comp(u)) for k in range(4)]
        assert devs[-1] < 1e-3
        for coarse, fine in zip(devs, devs[1:]):
            assert coarse / fine == pytest.approx(2.0, abs=0.1)


class TestSemigroupComposition:
    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_two_steps_equal_one(self, mu):
        # applied to a normalizable packet; the pointwise kernel-product
        # integral is not absolutely convergent, the operator statement is
        comp = gaussian_component(center=0.3, width=1.0, wavenumber=0.5)
        s1, s2 = 0.4, 0.9
        once = propagate_component(comp, mu, s1 + s2)
        twice = propagate_component(propagate_component(comp, mu, s1), mu, s2)
        u = np.linspace(-12, 12, 1501)
        ref = np.max(np.abs(once(u)))
        np.testing.assert_allclose(twice(u), once(u), atol=1e-10 * ref)

    def test_forward_backward_is_identity(self):
        comp = gaussian_component(center=0.0, width=1.0, wavenumber=0.3)
        back = propagate_component(propagate_component(comp, 1.0, 0.7),
                                   1.0, -0.7)
        n0 = component_overlap(comp, comp).real
        cross = component_overlap(back, comp).real
        assert cross == pytest.approx(n0, rel=1e-10)

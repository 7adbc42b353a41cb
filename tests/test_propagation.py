import math

import numpy as np
import pytest

from timefringe.errors import DomainError, ResolutionError
from timefringe.numerics import simpson_weights
from timefringe.packets import (GaussianSpatialPacket, Grid1D, Grid2D,
                                SpacetimePacket, TimeGate, expectations)
from timefringe.propagation import (CLOSED_FORM, FLOQUET, QUADRATURE,
                                    STUECKELBERG, auto_output_grid,
                                    gaussian_component, hamilton_diagnostics,
                                    propagate_component, propagate_floquet,
                                    propagate_schrodinger,
                                    propagate_stueckelberg,
                                    schrodinger_closed_form)

MASS = 1.0
HBAR = 1.0


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
            comp = schrodinger_closed_form(pk, t)
            expected = (w / math.sqrt(2)) * math.sqrt(1 + (t / w**2) ** 2)
            assert comp.intensity_sigma == pytest.approx(expected, rel=1e-12)

    def test_drift_at_group_velocity(self):
        pk = GaussianSpatialPacket(0.0, 1.0, 0.7)
        comp = schrodinger_closed_form(pk, 3.0)
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

    def test_zero_elapsed_is_identity(self):
        pk = GaussianSpatialPacket(0.0, 1.0, 0.5)
        grid = Grid1D(-8.0, 8.0, 401)
        res = propagate_schrodinger(pk, 0.0, grid=grid)
        np.testing.assert_allclose(res.field, pk.amplitude(grid.x),
                                   rtol=1e-12)

    def test_rejects_negative_time_and_bad_engine(self):
        pk = GaussianSpatialPacket()
        with pytest.raises(DomainError):
            propagate_schrodinger(pk, -1.0)
        with pytest.raises(DomainError):
            propagate_schrodinger(pk, 1.0, engine="spectral")

    def test_coarse_explicit_input_grid_raises(self):
        pk = GaussianSpatialPacket(0.0, 1.0, 0.5)
        with pytest.raises(ResolutionError) as err:
            propagate_schrodinger(pk, 4.0, QUADRATURE,
                                  grid=Grid1D(-10.0, 14.0, 801),
                                  input_grid=Grid1D(-7.5, 7.5, 33))
        assert err.value.required_n_x is not None


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
        mom = expectations(res.field, res.grid)
        expected = (w / math.sqrt(2)) * math.sqrt(1 + (s / w**2) ** 2)
        assert mom.sigma_t == pytest.approx(expected, rel=1e-3)

    def test_coarse_explicit_input_grid_raises(self):
        pk = two_gate_packet()
        coarse = Grid2D(-37.5, 37.5, 65, -3.75, 15.75, 65)
        with pytest.raises(ResolutionError):
            propagate_stueckelberg(pk, 10.0, QUADRATURE, input_grid=coarse)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            propagate_stueckelberg(two_gate_packet(), -2.0)


class TestComponentAlgebra:
    def test_intensity_moments_of_component(self):
        comp = gaussian_component(center=1.5, width=0.7, wavenumber=2.0)
        assert comp.intensity_mean == pytest.approx(1.5, rel=1e-12)
        assert comp.intensity_sigma == pytest.approx(0.7 / math.sqrt(2),
                                                     rel=1e-12)

    def test_displaced_component_no_overflow(self):
        # widely displaced gates must survive the log-amplitude bookkeeping
        comp = gaussian_component(center=4000.0, width=0.5, wavenumber=0.0)
        out = propagate_component(comp, -1.0, 10.0)
        assert np.isfinite(out.logamp)
        assert np.isfinite(out(4000.0))

    def test_hamilton_needs_three_samples(self):
        with pytest.raises(DomainError):
            hamilton_diagnostics(two_gate_packet(), STUECKELBERG, [1.0, 2.0])

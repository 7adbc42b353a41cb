import math

import numpy as np
import pytest

from timefringe.errors import DomainError
from timefringe.numerics import simpson_weights
from timefringe.packets import (GaussianSpatialPacket, Grid1D, Grid2D,
                                SpacetimePacket, TimeGate)


def single_gate_packet(width=0.5, center=0.0, profile="gaussian"):
    return SpacetimePacket(
        spatial=GaussianSpatialPacket(0.0, 1.0, 0.3),
        gates=(TimeGate(center_t=center, width_delta_t=width,
                        profile=profile),),
        mean_energy_E0=1.0).normalized()


def default_grid(packet, n_x=257, n_t=513, pad=7.0):
    w = packet.spatial.width_sigma_x
    lo_t = min(g.center_t - pad * g.width_delta_t for g in packet.gates)
    hi_t = max(g.center_t + pad * g.width_delta_t for g in packet.gates)
    return Grid2D(packet.spatial.center_x - pad * w,
                  packet.spatial.center_x + pad * w, n_x, lo_t, hi_t, n_t)


def evaluate(packet, x, t):
    """psi(x, t) = X(x) sum_k G_k(t), broadcast over x and t."""
    return packet.spatial.amplitude(x) * packet.gate_sum(t)


def on_grid(packet, grid):
    return np.outer(packet.spatial.amplitude(grid.x), packet.gate_sum(grid.t))


def grid_norm2(packet, grid):
    """Space-time Simpson sum of |psi|^2 on the grid."""
    wx = simpson_weights(grid.n_x, grid.dx)
    wt = simpson_weights(grid.n_t, grid.dt)
    return float(wx @ np.abs(on_grid(packet, grid)) ** 2 @ wt)


class TestSpatialPacket:
    def test_closed_form_unit_norm(self):
        pk = GaussianSpatialPacket(0.7, 1.3, 2.0)
        x = np.linspace(0.7 - 12 * 1.3, 0.7 + 12 * 1.3, 4001)
        n2 = simpson_weights(4001, x[1] - x[0]) @ np.abs(pk.amplitude(x)) ** 2
        assert n2 == pytest.approx(1.0, rel=1e-9)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            GaussianSpatialPacket(width_sigma_x=0.0)


class TestTimeGate:
    def test_rejects_bad_profile(self):
        with pytest.raises(DomainError):
            TimeGate(profile="triangular")

    def test_rectangular_support(self):
        g = TimeGate(center_t=1.0, width_delta_t=2.0, profile="rectangular")
        assert g.envelope(1.9) == 1.0
        assert g.envelope(2.1) == 0.0


class TestEvaluatePacket:
    def test_peak_at_gate_center(self):
        pk = single_gate_packet()
        grid = default_grid(pk)
        field = np.abs(on_grid(pk, grid))
        peak = np.abs(evaluate(pk, 0.0, 0.0))
        assert peak >= field.max() * (1 - 1e-9)

    def test_two_coincident_gates_double_amplitude(self):
        pk = single_gate_packet()
        g = pk.gates[0]
        doubled = SpacetimePacket(spatial=pk.spatial, gates=(g, g),
                                  mean_energy_E0=pk.mean_energy_E0)
        x = np.linspace(-3, 3, 41)
        t = np.linspace(-2, 2, 41)
        for xi in x[::8]:
            np.testing.assert_allclose(
                evaluate(doubled, xi, t),
                2.0 * evaluate(pk, xi, t), rtol=1e-12)

    def test_gate_list_linearity(self):
        spatial = GaussianSpatialPacket(0.0, 1.0, 0.3)
        g1 = TimeGate(0.0, 0.5, amplitude=0.8 + 0.1j)
        g2 = TimeGate(3.0, 0.7, amplitude=0.4 - 0.2j)
        both = SpacetimePacket(spatial, (g1, g2), 1.0)
        only1 = SpacetimePacket(spatial, (g1,), 1.0)
        only2 = SpacetimePacket(spatial, (g2,), 1.0)
        t = np.linspace(-4, 8, 301)
        np.testing.assert_allclose(
            evaluate(both, 0.5, t),
            evaluate(only1, 0.5, t) + evaluate(only2, 0.5, t),
            rtol=1e-12)

    def test_distant_gate_does_not_perturb(self):
        w = 0.5
        spatial = GaussianSpatialPacket(0.0, 1.0, 0.0)
        near = SpacetimePacket(spatial, (TimeGate(0.0, w),), 1.0)
        far = SpacetimePacket(spatial,
                              (TimeGate(0.0, w), TimeGate(10 * w, w)), 1.0)
        a = abs(evaluate(near, 0.0, 0.0))
        b = abs(evaluate(far, 0.0, 0.0))
        # tail of the far gate at 10 widths: exp(-50) ~ 2e-22
        assert abs(a - b) / a < 1e-9


class TestNorm2:
    def test_normalized_packet(self):
        pk = single_gate_packet()
        assert grid_norm2(pk, default_grid(pk)) == pytest.approx(1.0,
                                                                 abs=1e-6)

    def test_two_disjoint_half_gates(self):
        spatial = GaussianSpatialPacket(0.0, 1.0, 0.0)
        pk = SpacetimePacket(
            spatial,
            (TimeGate(0.0, 0.5), TimeGate(20.0, 0.5)), 1.0).normalized()
        grid = default_grid(pk, n_t=2049)
        assert grid_norm2(pk, grid) == pytest.approx(1.0, abs=1e-6)
        half = SpacetimePacket(spatial, pk.gates[:1], 1.0)
        assert grid_norm2(half, grid) == pytest.approx(0.5, abs=1e-6)

    def test_rectangular_norm_is_exact(self):
        spatial = GaussianSpatialPacket(0.0, 1.0, 0.0)

        def pair(eps):
            return SpacetimePacket(
                spatial, (TimeGate(0.0, 0.5, "rectangular"),
                          TimeGate(eps, 0.5, "rectangular")), 1.0)

        # two unit rectangles of width 0.5 apart: norm^2 = 2 * 0.5 = 1
        for eps in (8.0, 12.0, 24.0):
            assert pair(eps).temporal_norm2() == pytest.approx(1.0, abs=1e-15)
            for g in pair(eps).normalized().gates:
                assert g.amplitude == pytest.approx(1.0, abs=1e-15)
        # supports [-0.25, 0.25] and [0.05, 0.55] share a length of 0.2
        assert pair(0.3).temporal_norm2() == pytest.approx(1.4, abs=1e-15)

    def test_mixed_profile_norm_is_exact(self):
        # the rectangle's support [0, 40] starts at the Gaussian's centre,
        # so it covers half of the Gaussian's integral w sqrt(2 pi)
        w = 0.5
        pk = SpacetimePacket(
            GaussianSpatialPacket(0.0, 1.0, 0.0),
            (TimeGate(0.0, w), TimeGate(20.0, 40.0, "rectangular")), 1.0)
        expected = w * math.sqrt(math.pi) + 40.0 + w * math.sqrt(2 * math.pi)
        assert pk.temporal_norm2() == pytest.approx(expected, rel=1e-15)

    def test_quadratic_amplitude_scaling(self):
        pk = single_gate_packet()
        scaled = SpacetimePacket(
            pk.spatial,
            tuple(TimeGate(g.center_t, g.width_delta_t, g.profile,
                           2.0 * g.amplitude) for g in pk.gates),
            pk.mean_energy_E0)
        grid = default_grid(pk)
        assert grid_norm2(scaled, grid) == pytest.approx(
            4.0 * grid_norm2(pk, grid), rel=1e-9)

    def test_translation_invariance(self):
        pk = single_gate_packet()
        dx, dt = 2.5, -3.5
        moved = SpacetimePacket(
            GaussianSpatialPacket(pk.spatial.center_x + dx,
                                  pk.spatial.width_sigma_x,
                                  pk.spatial.mean_momentum_p0),
            tuple(TimeGate(g.center_t + dt, g.width_delta_t, g.profile,
                           g.amplitude) for g in pk.gates),
            pk.mean_energy_E0)
        g0 = default_grid(pk)
        g1 = Grid2D(g0.x_min + dx, g0.x_max + dx, g0.n_x,
                    g0.t_min + dt, g0.t_max + dt, g0.n_t)
        assert grid_norm2(moved, g1) == pytest.approx(grid_norm2(pk, g0),
                                                      rel=1e-9)


class TestInvariantChecks:
    def test_packet_needs_a_gate(self):
        with pytest.raises(DomainError):
            SpacetimePacket(GaussianSpatialPacket(), (), 1.0)

    def test_grid_axes_are_computed_once(self):
        grid = Grid2D(-3.0, 5.0, 257, -1.5, 7.25, 513)
        assert grid.x is grid.x
        assert grid.t is grid.t
        for axis, want in [(grid.x, np.linspace(-3.0, 5.0, 257)),
                           (grid.t, np.linspace(-1.5, 7.25, 513))]:
            assert np.array_equal(axis.view(np.int64), want.view(np.int64))
            with pytest.raises(ValueError):
                axis[0] = 0.0
        line = Grid1D(-3.0, 5.0, 257)
        assert line.x is line.x
        assert np.array_equal(line.x.view(np.int64),
                              np.linspace(-3.0, 5.0, 257).view(np.int64))

    def test_grid_invariants(self):
        with pytest.raises(DomainError):
            Grid2D(0, 1, 1, 0, 1, 8)
        with pytest.raises(DomainError):
            Grid2D(1, 0, 8, 0, 1, 8)

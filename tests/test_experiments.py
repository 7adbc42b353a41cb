import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from timefringe.errors import (DomainError, NoFringes, OverlapWarning,
                               ResolutionError)
from timefringe.experiments import (DESK_SCALE, IntensityTrace, TwoGateConfig,
                                    build_packet, extract_fringes,
                                    two_gate_run, visibility_scan)
from timefringe.packets import norm2, Grid2D
from timefringe.propagation import (CLOSED_FORM, FLOQUET, QUADRATURE,
                                    SCHRODINGER, STUECKELBERG,
                                    auto_output_grid, propagate_floquet,
                                    propagate_stueckelberg)


class TestTwoGateConfig:
    def test_desk_scale_derived_quantities(self):
        cfg = DESK_SCALE
        assert cfg.s_star == pytest.approx(10.0, rel=1e-12)   # M L / p0
        assert cfg.carrier == pytest.approx(1.02, rel=1e-12)  # Mc^2 + p^2/2M
        assert cfg.detector == cfg.flight_distance

    def test_predicted_spacing_formula(self):
        cfg = DESK_SCALE
        expected = 2 * math.pi * 2.0 / (0.2 * 12.0)
        assert cfg.predicted_spacing() == pytest.approx(expected, rel=1e-12)

    def test_overrides_take_precedence(self):
        cfg = replace(DESK_SCALE, s_override=7.0, detector_x=1.3,
                      carrier_energy=2.0)
        assert cfg.s_star == 7.0
        assert cfg.detector == 1.3
        assert cfg.carrier == 2.0

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            TwoGateConfig(momentum=0.0)
        with pytest.raises(DomainError):
            TwoGateConfig(gate_spacing=-1.0)
        with pytest.raises(DomainError):
            TwoGateConfig(engine="exact")
        with pytest.raises(DomainError):
            replace(DESK_SCALE, gate_spacing=0.0).predicted_spacing()


class TestBuildPacket:
    def test_unit_norm(self):
        pk = build_packet(DESK_SCALE)
        grid = Grid2D(-40.0, 40.0, 257, -4.0, 16.0, 1025)
        assert norm2(pk, grid) == pytest.approx(1.0, abs=1e-6)

    def test_gate_placement(self):
        pk = build_packet(DESK_SCALE)
        assert [g.center_t for g in pk.gates] == [0.0, 12.0]


class TestTwoGateRun:
    def test_covariant_fringes(self):
        outcome = two_gate_run(STUECKELBERG)
        report = extract_fringes(outcome.trace,
                                 predicted_spacing=outcome.predicted_spacing)
        assert outcome.interference_visibility >= 0.5
        assert len(report.peak_times) >= 3
        assert report.relative_error < 0.10
        assert outcome.norm_drift < 1e-6

    def test_time_shift_theory_no_cross_term(self):
        outcome = two_gate_run(FLOQUET)
        assert outcome.interference_visibility <= 1e-10
        # coherent and incoherent traces coincide: no cross term anywhere
        peak = np.max(outcome.incoherent_trace.intensity)
        np.testing.assert_allclose(outcome.trace.intensity,
                                   outcome.incoherent_trace.intensity,
                                   atol=1e-10 * peak)
        # the only structure is the two rigidly shifted gate echoes
        report = extract_fringes(outcome.trace)
        assert report.spacing_T == pytest.approx(12.0, rel=0.02)

    def test_rectangular_gates_exactly_zero(self):
        cfg = replace(DESK_SCALE, gate_profile="rectangular")
        outcome = two_gate_run(FLOQUET, cfg)
        assert outcome.interference_visibility == 0.0

    def test_control_visibility_exactly_zero(self):
        outcome = two_gate_run(SCHRODINGER)
        assert outcome.interference_visibility == 0.0
        assert outcome.predicted_spacing is None
        np.testing.assert_array_equal(outcome.trace.intensity,
                                      outcome.incoherent_trace.intensity)

    def test_control_trace_is_smooth(self):
        # the mixed-state trace is a sum of two broad arrival envelopes and
        # carries no oscillation: at most two interior local maxima
        cfg = replace(DESK_SCALE, n_t=801)
        trace = two_gate_run(SCHRODINGER, cfg).trace
        y = trace.intensity
        interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
        significant = y[1:-1] >= 0.1 * np.max(y)
        assert np.count_nonzero(interior & significant) <= 2

    def test_overlapping_gates_warn(self):
        cfg = replace(DESK_SCALE, gate_spacing=0.25)
        with pytest.warns(OverlapWarning):
            two_gate_run(SCHRODINGER, cfg)

    def test_rejects_unknown_theory(self):
        with pytest.raises(DomainError):
            two_gate_run("bohmian")

    @pytest.mark.parametrize("engine", [CLOSED_FORM, QUADRATURE])
    @pytest.mark.parametrize("theory,profile", [
        (FLOQUET, "gaussian"), (FLOQUET, "rectangular"),
        (STUECKELBERG, "gaussian")])
    def test_traces_match_full_field_reference(self, theory, profile, engine):
        # reference: the detector column of the full two-gate field, and the
        # sum of the columns of each single-gate packet's field
        cfg = replace(DESK_SCALE, flight_distance=4.0, gate_profile=profile,
                      engine=engine)
        packet = build_packet(cfg)
        s = cfg.s_star
        grid = auto_output_grid(packet, theory, s)
        ix = int(np.argmin(np.abs(grid.x - cfg.detector)))
        run = propagate_floquet if theory == FLOQUET else propagate_stueckelberg

        def column(pk):
            return np.abs(run(pk, s, engine, grid=grid).field[ix]) ** 2

        coherent = column(packet)
        incoherent = sum(column(replace(packet, gates=(g,)))
                         for g in packet.gates)
        outcome = two_gate_run(theory, cfg)
        np.testing.assert_array_equal(outcome.trace.times, grid.t)
        np.testing.assert_allclose(outcome.trace.intensity, coherent, rtol=0,
                                   atol=1e-12 * np.max(coherent))
        np.testing.assert_allclose(outcome.incoherent_trace.intensity,
                                   incoherent, rtol=0,
                                   atol=1e-12 * np.max(incoherent))

    def test_unresolved_fringes_raise_with_required_n_t(self):
        cfg = replace(DESK_SCALE, gate_spacing=96.0)
        with pytest.raises(ResolutionError) as err:
            two_gate_run(STUECKELBERG, cfg)
        cfg = replace(cfg, n_t=err.value.required_n_t)
        outcome = two_gate_run(STUECKELBERG, cfg)
        dt = outcome.trace.times[1] - outcome.trace.times[0]
        assert cfg.predicted_spacing() / dt >= 8.0

    def test_wide_spacing_quadrature_memory(self):
        # at eps = 192 the joint input time range of the two gates takes
        # 56907 quadrature nodes; a dense n_t x n_in kernel would need GiB
        cfg = replace(DESK_SCALE, gate_spacing=192.0, flight_distance=1.5,
                      engine=QUADRATURE)
        with pytest.raises(ResolutionError) as err:
            two_gate_run(STUECKELBERG, cfg)
        cfg = replace(cfg, n_t=err.value.required_n_t)
        tracemalloc.start()
        try:
            outcome = two_gate_run(STUECKELBERG, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        exact = two_gate_run(STUECKELBERG, replace(cfg, engine=CLOSED_FORM))
        np.testing.assert_allclose(outcome.trace.intensity,
                                   exact.trace.intensity, rtol=0,
                                   atol=1e-6 * np.max(exact.trace.intensity))

    def test_deterministic(self):
        a = two_gate_run(STUECKELBERG)
        b = two_gate_run(STUECKELBERG)
        np.testing.assert_array_equal(a.trace.intensity, b.trace.intensity)
        assert a.interference_visibility == b.interference_visibility


def planted_trace(period=0.5, n=4001, center=10.0, envelope_sigma=3.0):
    t = np.linspace(center - 10.0, center + 10.0, n)
    envelope = np.exp(-((t - center) ** 2) / (2 * envelope_sigma**2))
    intensity = envelope * (1.0 + np.cos(2 * np.pi * (t - center) / period))
    return IntensityTrace(times=t, intensity=intensity,
                          detector_x=0.0, theory="synthetic")


class TestExtractFringes:
    def test_recovers_planted_period(self):
        trace = planted_trace(period=0.5)
        step = trace.times[1] - trace.times[0]
        report = extract_fringes(trace)
        assert abs(report.spacing_T - 0.5) <= step

    def test_invariant_under_rescaling(self):
        trace = planted_trace()
        scaled = IntensityTrace(times=trace.times,
                                intensity=1e7 * trace.intensity,
                                detector_x=0.0, theory="synthetic")
        a = extract_fringes(trace)
        b = extract_fringes(scaled)
        for pa, pb in zip(a.peak_times, b.peak_times):
            assert pb == pytest.approx(pa, rel=1e-12, abs=1e-12)
        assert b.spacing_T == pytest.approx(a.spacing_T, rel=1e-12)
        assert b.visibility == pytest.approx(a.visibility, rel=1e-12)

    def test_full_contrast_cosine(self):
        report = extract_fringes(planted_trace())
        assert report.visibility > 0.99

    def test_relative_error_against_prediction(self):
        report = extract_fringes(planted_trace(period=0.5),
                                 predicted_spacing=0.5)
        assert report.relative_error < 1e-2

    def test_smooth_envelope_has_no_fringes(self):
        t = np.linspace(0.0, 20.0, 2001)
        smooth = IntensityTrace(times=t,
                                intensity=np.exp(-((t - 10) ** 2) / 8.0),
                                detector_x=0.0, theory="synthetic")
        with pytest.raises(NoFringes):
            extract_fringes(smooth)

    def test_zero_trace_and_bad_threshold(self):
        t = np.linspace(0.0, 1.0, 101)
        zero = IntensityTrace(times=t, intensity=np.zeros_like(t),
                              detector_x=0.0, theory="synthetic")
        with pytest.raises(NoFringes):
            extract_fringes(zero)
        with pytest.raises(DomainError):
            extract_fringes(planted_trace(), threshold_fraction=1.5)

    def test_trace_validation(self):
        with pytest.raises(DomainError):
            IntensityTrace(times=np.array([0.0, 1.0, 1.0]),
                           intensity=np.zeros(3), detector_x=0.0, theory="x")
        with pytest.raises(DomainError):
            IntensityTrace(times=np.array([0.0, 1.0]),
                           intensity=np.array([1.0, -1.0]),
                           detector_x=0.0, theory="x")


class TestVisibilityScan:
    def test_rows_in_input_order(self):
        eps = [12.0, 24.0, 18.0]
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, eps)
        assert [r.value for r in rows] == eps
        for row in rows:
            assert row.visibility >= 0.5
            assert row.spacing_T is not None
            assert row.error is None

    def test_spacing_scales_inversely_with_epsilon(self):
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, [12.0, 24.0])
        assert rows[0].spacing_T == pytest.approx(2 * rows[1].spacing_T,
                                                  rel=0.05)

    def test_worker_counts_agree(self):
        eps = [12.0, 18.0, 24.0]
        serial = visibility_scan(STUECKELBERG, DESK_SCALE, eps, workers=1)
        parallel = visibility_scan(STUECKELBERG, DESK_SCALE, eps, workers=3)
        assert serial == parallel

    def test_bad_row_is_isolated(self):
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, [12.0, -1.0])
        assert rows[0].error is None
        assert rows[1].error is not None
        assert math.isnan(rows[1].visibility)

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            visibility_scan(STUECKELBERG, DESK_SCALE, [12.0])

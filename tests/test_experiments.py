import dataclasses
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timefringe.errors import DomainError, NoFringes, OverlapWarning
from timefringe.experiments import (DESK_SCALE, MIN_INTERFERENCE_VISIBILITY,
                                    IntensityTrace, TwoGateConfig, _median,
                                    build_packet,
                                    extract_fringes, outcome_fringes,
                                    two_gate_run, visibility_scan)
from timefringe import packets, propagation
from timefringe.numerics import simpson_weights
from timefringe.packets import Grid2D
from timefringe.propagation import (CLOSED_FORM, ENGINES, FLOQUET, QUADRATURE,
                                    SAMPLES_PER_FEATURE, SCHRODINGER,
                                    STUECKELBERG, THEORIES, auto_output_grid,
                                    gate_component, propagate_component,
                                    propagate_floquet, propagate_schrodinger,
                                    propagate_spacetime,
                                    propagate_stueckelberg, spatial_component)


# asked for quadrature, the control warns that it runs in closed form
control_runs_closed_form = pytest.mark.filterwarnings(
    "ignore:schrodinger_control has no quadrature path")


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
        # T = 2 pi s / eps follows an overridden s, not M L / p
        cfg = replace(DESK_SCALE, s_elapsed=1000.0)
        assert cfg.predicted_spacing() == pytest.approx(
            2 * math.pi * 1000.0 / 12.0, rel=1e-12)

    def test_overrides_take_precedence(self):
        cfg = replace(DESK_SCALE, s_elapsed=7.0, detector_x=1.3,
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
        x = np.linspace(-40.0, 40.0, 257)
        t = np.linspace(-4.0, 16.0, 1025)
        # the field is rank-1, so its norm^2 is a product of 1-D sums
        nx = simpson_weights(len(x), x[1] - x[0]) @ np.abs(
            pk.spatial.amplitude(x)) ** 2
        nt = simpson_weights(len(t), t[1] - t[0]) @ np.abs(pk.gate_sum(t)) ** 2
        assert nx * nt == pytest.approx(1.0, abs=1e-6)

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
        trace = two_gate_run(SCHRODINGER).trace
        y = trace.intensity
        interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
        significant = y[1:-1] >= 0.1 * np.max(y)
        assert np.count_nonzero(interior & significant) <= 2

    def test_control_window_follows_source_and_detector(self):
        # the window centres on the arrival time (x_d - x0) / p, so moving
        # the source by -998 gives the trace of moving the detector by +998
        far = two_gate_run(SCHRODINGER, replace(DESK_SCALE, detector_x=1000.0))
        back = two_gate_run(SCHRODINGER,
                            replace(DESK_SCALE, spatial_center=-998.0))
        np.testing.assert_array_equal(far.trace.times, back.trace.times)
        np.testing.assert_array_equal(far.trace.intensity,
                                      back.trace.intensity)
        y = far.trace.intensity
        assert 0 < int(np.argmax(y)) < len(y) - 1  # the peak is inside

    @pytest.mark.parametrize("change", [{"momentum": 1e3},
                                        {"gate_spacing": 1e4}])
    def test_automatic_grid_resolves_the_arrival(self, change):
        trace = two_gate_run(SCHRODINGER, replace(DESK_SCALE, **change)).trace
        assert np.max(trace.intensity) > 0
        assert len(trace.times) % 2 == 1

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

    def test_wide_spacing_quadrature_memory(self):
        # at eps = 192 the joint input time range of the two gates takes
        # 56907 quadrature nodes and the automatic output axis 16115
        # samples; a dense n_t x n_in kernel would need GiB
        cfg = replace(DESK_SCALE, gate_spacing=192.0, flight_distance=1.5,
                      engine=QUADRATURE)
        tracemalloc.start()
        try:
            outcome = two_gate_run(STUECKELBERG, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outcome.trace.times) == 16115
        assert peak < 64e6
        exact = two_gate_run(STUECKELBERG, replace(cfg, engine=CLOSED_FORM))
        np.testing.assert_allclose(outcome.trace.intensity,
                                   exact.trace.intensity, rtol=0,
                                   atol=1e-6 * np.max(exact.trace.intensity))

    @pytest.mark.parametrize("eps,flight", [(12.0, 2.0), (96.0, 2.0),
                                            (48.0, 1.5), (8.0, 4.0)])
    def test_automatic_grid_resolves_the_exact_fringe(self, eps, flight):
        # SAMPLES_PER_FEATURE samples over the span per period of the cross
        # term, whose phase Im(b_1 - b_2) t is exactly linear; the law's
        # period is within 0.2 % of it here, so the grid gives the law's
        # period nearly 12 samples too
        cfg = replace(DESK_SCALE, gate_spacing=eps, flight_distance=flight)
        packet = build_packet(cfg)
        b1, b2 = (propagate_component(gate_component(g, packet.mean_energy_E0),
                                      -1.0, cfg.s_star).b
                  for g in packet.gates)
        exact = 2.0 * math.pi / abs(b1.imag - b2.imag)
        times = two_gate_run(STUECKELBERG, cfg).trace.times
        n_t, span = len(times), times[-1] - times[0]
        assert n_t * exact / span >= SAMPLES_PER_FEATURE
        assert (n_t - 1) * exact / span > SAMPLES_PER_FEATURE - 0.1
        assert (n_t - 1) * cfg.predicted_spacing() / span > 11.9
        assert exact == pytest.approx(cfg.predicted_spacing(), rel=2e-3)

    @pytest.mark.parametrize("flight", [1e-3, 1e-5])
    def test_automatic_grid_has_no_law_guard(self, flight):
        # so short a flight is near field: the gates never overlap, the
        # exact period is 6.5 while the law says 0.0026, and the run
        # resolves the trace it has; the visibility floor judges it
        outcome = two_gate_run(STUECKELBERG,
                               replace(DESK_SCALE, flight_distance=flight))
        assert len(outcome.trace.times) < 1000
        assert outcome.interference_visibility < MIN_INTERFERENCE_VISIBILITY
        with pytest.raises(NoFringes, match="below the floor"):
            outcome_fringes(outcome)

    @control_runs_closed_form
    @pytest.mark.parametrize("theory", [SCHRODINGER, FLOQUET, STUECKELBERG])
    @pytest.mark.parametrize("engine", [CLOSED_FORM, QUADRATURE])
    @pytest.mark.parametrize("change", [{}, {"gate_spacing": 48.0},
                                        {"flight_distance": 3.5}])
    def test_trace_equals_explicit_n_t_run(self, theory, engine, change):
        # the automatic time axis is an ordinary grid: its span and sample
        # count, given explicitly as a Grid2D, reproduce the trace, bit for
        # bit in closed form, where the column sits on the detector; by
        # quadrature the detector's Simpson sum and the grid's Bluestein
        # column differ by rounding. The control's trace is each gate's
        # pulse, carrying half the photon, evaluated at those times
        cfg = replace(DESK_SCALE, engine=engine, **change)
        auto = two_gate_run(theory, cfg)
        times = auto.trace.times
        packet = build_packet(cfg)
        if theory == SCHRODINGER:
            comp0 = spatial_component(replace(packet.spatial, center_x=0.0))
            distance = cfg.detector - cfg.spatial_center
            pulses = []
            for g in packet.gates:
                elapsed = times - g.center_t
                later = elapsed > 0
                pulse = np.zeros(len(times))
                pulse[later] = 0.5 * np.abs(propagate_component(
                    comp0, 1.0, elapsed[later])(distance)) ** 2
                pulses.append(pulse)
            coherent = incoherent = pulses[0] + pulses[1]
            np.testing.assert_allclose(auto.trace.intensity, coherent,
                                       rtol=0, atol=1e-12 * np.max(coherent))
            np.testing.assert_array_equal(auto.incoherent_trace.intensity,
                                          auto.trace.intensity)
            assert auto.interference_visibility == 0.0
            return
        x = auto_output_grid(packet, theory, cfg.s_star)
        grid = Grid2D(x.x_min, x.x_max, x.n_x, times[0], times[-1],
                      len(times))
        result = propagate_spacetime(packet, theory, cfg.s_star, engine,
                                     grid=grid)
        ix = int(np.argmin(np.abs(grid.x - cfg.detector)))
        x_d = result.spatial[ix]
        coherent = np.abs(x_d * sum(result.temporal)) ** 2
        incoherent = sum(np.abs(x_d * tk) ** 2 for tk in result.temporal)
        np.testing.assert_array_equal(grid.t, times)
        assert grid.x[ix] == cfg.detector
        rtol = 0 if engine == CLOSED_FORM else 1e-12
        np.testing.assert_allclose(auto.trace.intensity, coherent, rtol=rtol,
                                   atol=0)
        np.testing.assert_allclose(auto.incoherent_trace.intensity,
                                   incoherent, rtol=rtol, atol=0)

    def test_deterministic(self):
        a = two_gate_run(STUECKELBERG)
        b = two_gate_run(STUECKELBERG)
        np.testing.assert_array_equal(a.trace.intensity, b.trace.intensity)
        assert a.interference_visibility == b.interference_visibility


class TestReadDetector:
    @pytest.mark.parametrize("theory", [FLOQUET, STUECKELBERG])
    @pytest.mark.parametrize("where", ["x=5", "x=L+0.37dx"])
    def test_trace_is_read_at_the_detector(self, theory, where):
        # off every node of the automatic x grid, whose nearest column the
        # run used to read and report as detector_x
        grid = auto_output_grid(build_packet(DESK_SCALE), theory,
                                DESK_SCALE.s_star)
        x_d = (5.0 if where == "x=5"
               else DESK_SCALE.flight_distance + 0.37 * grid.dx)
        assert np.min(np.abs(grid.x - x_d)) >= 0.3 * grid.dx
        cfg = replace(DESK_SCALE, detector_x=x_d)
        packet, s = build_packet(cfg), cfg.s_star
        exact = two_gate_run(theory, cfg)
        times = exact.trace.times
        # the oracle |X(x_d)|^2 |sum_k T_k(t)|^2 of the rank-1 field
        x_value = propagate_component(spatial_component(packet.spatial), 1.0,
                                      s)(x_d)
        if theory == FLOQUET:
            gates = packet.gate_sum(times - s)
        else:
            gates = sum(propagate_component(
                gate_component(g, packet.mean_energy_E0), -1.0, s)(times)
                for g in packet.gates)
        oracle = np.abs(x_value) ** 2 * np.abs(gates) ** 2
        np.testing.assert_allclose(exact.trace.intensity, oracle, rtol=1e-12,
                                   atol=0)
        quad = two_gate_run(theory, replace(cfg, engine=QUADRATURE))
        np.testing.assert_array_equal(quad.trace.times, times)
        np.testing.assert_allclose(quad.trace.intensity, oracle, rtol=0,
                                   atol=1e-6 * np.max(oracle))
        for outcome in (exact, quad):
            assert outcome.trace.detector_x == x_d
            assert outcome.incoherent_trace.detector_x == x_d

    @pytest.mark.parametrize("theory", [FLOQUET, STUECKELBERG])
    @pytest.mark.parametrize("engine", [CLOSED_FORM, QUADRATURE])
    def test_norm_drift_is_the_field_apis(self, theory, engine):
        cfg = replace(DESK_SCALE, engine=engine)
        outcome = two_gate_run(theory, cfg)
        field = propagate_spacetime(build_packet(cfg), theory, cfg.s_star,
                                    engine)
        assert outcome.norm_drift == field.norm_drift

    @pytest.mark.parametrize("change", [{}, {"flight_distance": 3.3,
                                             "momentum": 0.3},
                                        {"detector_x": 5.0,
                                         "spatial_center": -1.0}])
    def test_control_norm_drift_is_its_packets_over_the_flight(self, change):
        # the mixed state's norm is the spatial packet's, spread over the
        # flight time (detector_x - spatial_center) / momentum
        cfg = replace(DESK_SCALE, **change)
        outcome = two_gate_run(SCHRODINGER, cfg)
        field = propagate_schrodinger(
            replace(build_packet(cfg).spatial, center_x=0.0),
            (cfg.detector - cfg.spatial_center) / cfg.momentum)
        assert outcome.norm_drift == field.norm_drift


class TestWorkCounts:
    @staticmethod
    def record(monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("theory,spreads", [(STUECKELBERG, 3),
                                                (FLOQUET, 1)])
    def test_closed_form_run_spreads_once_and_builds_no_x_axis(
            self, monkeypatch, theory, spreads):
        # the spatial component and, under the covariant theory, each gate;
        # the one axis built is the trace's time axis
        spread = self.record(monkeypatch, propagation, "propagate_component")
        axes = self.record(monkeypatch, propagation, "_axis")
        grid_axes = self.record(monkeypatch, packets, "_axis")
        times = two_gate_run(theory).trace.times
        assert len(spread) == spreads
        assert axes == [(times[0], times[-1], len(times))]
        assert grid_axes == []

    def test_scan_computes_no_norm(self, monkeypatch):
        overlaps = self.record(monkeypatch, propagation, "component_overlap")
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, [12.0, 18.0])
        assert all(row.error is None for row in rows)
        assert overlaps == []

    def test_closed_form_row_builds_each_packet_and_gate_once(
            self, monkeypatch):
        # the normalized packet is built, not copied by dataclasses.replace;
        # the unspread gates are built only for the norm, and the spacing
        # takes no np.median
        spread = self.record(monkeypatch, propagation, "propagate_component")
        gates = self.record(monkeypatch, propagation, "gate_component")
        medians = self.record(monkeypatch, np, "median")
        replaced, code = [], dataclasses.replace.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                replaced.append(frame.f_back.f_code.co_name)
        sys.setprofile(profile)
        try:
            outcome = two_gate_run(STUECKELBERG)
            outcome_fringes(outcome)
        finally:
            sys.setprofile(None)
        assert (replaced, len(gates), medians, len(spread)) == ([], 2, [], 3)
        assert outcome.norm_drift > 0
        assert len(gates) == 4

    @pytest.mark.parametrize("theory,count", [(STUECKELBERG, 10),
                                              (FLOQUET, 2)])
    def test_norm_drift_is_computed_when_read(self, monkeypatch, theory,
                                              count):
        # x: one overlap before, one after; covariant t: 2 x 2 gate pairs
        # before and after
        overlaps = self.record(monkeypatch, propagation, "component_overlap")
        outcome = two_gate_run(theory)
        assert overlaps == []
        drift = outcome.norm_drift
        assert len(overlaps) == count
        assert outcome.norm_drift == drift
        assert len(overlaps) == count


# Desk-scale traces: theory, engine, n_t, first and last time, intensity at
# fixed indices, intensity sum. The control ignores the engine.
DESK_TRACE_PINS = [
    ("schrodinger_control", "closed_form", 129,
     -72.15773105863909, 104.15773105863909,
     {56: 0.053227174793536766, 62: 0.09906338495623984,
      71: 0.08126612813153195, 81: 0.05080946051762689,
      90: 0.03452323301829309, 100: 0.024585702020702066,
      109: 0.01929695527682372, 119: 0.015491205977463587,
      128: 0.013126028636833528},
     3.1762699251536306),
    ("stueckelberg", "closed_form", 449,
     -81.7526032801682, 114.15260328016821,
     {100: 3.5787967519222924e-06, 131: 8.304701956043666e-05,
      162: 0.0007765364477804488, 193: 0.00039360135034669235,
      224: 0.005400741168764786, 255: 0.0003936013503467813,
      286: 0.0007765364477804806, 317: 8.304701956044413e-05,
      348: 3.5787967519226655e-06},
     0.23958415936001026),
    ("stueckelberg", "quadrature", 449,
     -81.7526032801682, 114.15260328016821,
     {100: 3.5787967519157207e-06, 131: 8.30470195603868e-05,
      162: 0.0007765364477801487, 193: 0.0003936013503465462,
      224: 0.0054007411687631, 255: 0.00039360135034653226,
      286: 0.0007765364477801606, 317: 8.304701956038915e-05,
      348: 3.5787967519160586e-06},
     0.23958415935991992),
    ("floquet", "closed_form", 483, 5.9375, 26.0625,
     {66: 6.383388677594763e-05, 82: 0.011558229940441114,
      97: 0.059072036342303055, 113: 0.010592257747503879,
      128: 8.260575392332564e-05, 369: 0.010592257747503777,
      385: 0.05907203634230304, 400: 0.011558229940441322,
      416: 6.383388677594882e-05},
     2.509211179985275),
    ("floquet", "quadrature", 483, 5.9375, 26.0625,
     {66: 6.383388677592748e-05, 82: 0.011558229940437467,
      97: 0.05907203634228444, 113: 0.010592257747500538,
      128: 8.260575392329956e-05, 369: 0.010592257747500434,
      385: 0.05907203634228441, 400: 0.011558229940437675,
      416: 6.383388677592865e-05},
     2.509211179984484),
]


@pytest.mark.parametrize("theory,engine,n_t,t_first,t_last,samples,total",
                         DESK_TRACE_PINS)
def test_desk_trace_is_pinned(theory, engine, n_t, t_first, t_last, samples,
                              total):
    trace = two_gate_run(theory, replace(DESK_SCALE, engine=engine)).trace
    assert len(trace.times) == n_t
    np.testing.assert_allclose([trace.times[0], trace.times[-1]],
                               [t_first, t_last], rtol=1e-12)
    np.testing.assert_allclose(trace.intensity[list(samples)],
                               list(samples.values()), rtol=1e-12)
    assert float(np.sum(trace.intensity)) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("eps", [8.0, 12.0, 17.5, 24.0, 31.0, 48.0])
@pytest.mark.parametrize("flight", [1.5, 2.0, 2.75, 4.0])
@pytest.mark.parametrize("width", [0.5, 0.3])
def test_time_shift_grid_counts_are_unchanged(eps, flight, width):
    # the time-shift t axis samples the narrowest gate 12 times over its
    # span, as it did before every time axis took that rule
    cfg = replace(DESK_SCALE, gate_spacing=eps, flight_distance=flight,
                  gate_width=width)
    grid = auto_output_grid(build_packet(cfg), FLOQUET, cfg.s_star)
    count = int(math.ceil((grid.t_max - grid.t_min) / (width / 12.0)))
    assert grid.n_t == max(129, count + (count % 2 == 0))


@pytest.mark.parametrize("flight", [2.0, 43.0, 50.0, 200.0])
def test_automatic_x_axis_samples_the_intensity_sigma(flight):
    # x takes the time axes' rule: SAMPLES_PER_FEATURE samples per intensity
    # sigma of the spread packet over its padded range, an odd count, no cap
    cfg = replace(DESK_SCALE, flight_distance=flight)
    packet, s = build_packet(cfg), cfg.s_star
    sigma = propagate_component(spatial_component(packet.spatial), 1.0,
                                s).intensity_sigma
    for grid in (auto_output_grid(packet, FLOQUET, s),
                 propagate_schrodinger(packet.spatial, s).grid):
        span = grid.x_max - grid.x_min
        assert grid.n_x % 2 == 1
        assert grid.n_x * sigma / span >= SAMPLES_PER_FEATURE
        assert (grid.n_x - 1) * sigma / span > SAMPLES_PER_FEATURE - 0.1


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(0.0, 48.0), flight=st.floats(1.0, 50.0),
       width=st.floats(0.2, 2.0), momentum=st.floats(0.05, 0.5),
       theory=st.sampled_from([FLOQUET, STUECKELBERG]))
@pytest.mark.filterwarnings("ignore::timefringe.errors.OverlapWarning")
def test_auto_output_grid_is_the_runs_grid(eps, flight, width, momentum,
                                           theory):
    # one time rule sizes the trace, the grid and the field: a run's trace
    # times are the automatic t axis, and x takes 157 samples at every L
    cfg = replace(DESK_SCALE, gate_spacing=eps, flight_distance=flight,
                  gate_width=width, momentum=momentum)
    packet, s = build_packet(cfg), cfg.s_star
    grid = auto_output_grid(packet, theory, s)
    times = two_gate_run(theory, cfg).trace.times
    assert np.array_equal(grid.t.view(np.int64), times.view(np.int64))
    assert grid.n_x == 157
    assert propagate_spacetime(packet, theory, s).grid == grid


def planted_trace(period=0.5, n=4001, center=10.0, envelope_sigma=3.0):
    t = np.linspace(center - 10.0, center + 10.0, n)
    envelope = np.exp(-((t - center) ** 2) / (2 * envelope_sigma**2))
    intensity = envelope * (1.0 + np.cos(2 * np.pi * (t - center) / period))
    return IntensityTrace(times=t, intensity=intensity,
                          detector_x=0.0, theory="synthetic")


def refine_peak(times, intensity, i):
    """The row-by-row peak refinement extract_fringes ran before its numpy
    form: the vertex of the parabola through samples i - 1, i, i + 1, or the
    sample time where they do not curve down."""
    denom = intensity[i - 1] - 2.0 * intensity[i] + intensity[i + 1]
    if denom >= 0:
        return float(times[i])
    shift = 0.5 * (intensity[i - 1] - intensity[i + 1]) / denom
    return float(times[i] + shift * (times[i + 1] - times[i]))


def reference_peak_times(trace, threshold_fraction):
    """The per-sample peak loop extract_fringes ran before its numpy form,
    behind the same guards, over the same central window."""
    t, y = trace.times, trace.intensity
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
    threshold = threshold_fraction * float(np.max(y[lo:hi + 1]))
    peaks = []
    for i in range(max(lo, 1), min(hi, len(y) - 2) + 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1] and y[i] >= threshold:
            peaks.append(refine_peak(t, y, i))
    if len(peaks) < 2:
        raise NoFringes(f"found {len(peaks)} peak(s); need at least 2")
    return peaks


@st.composite
def quantized_traces(draw):
    """Integer levels 0..8, so that plateaus, ties and samples exactly at
    the threshold are common. Ends raised to 8 * 2^m pull the window out to
    samples 0 and n - 1 and move the threshold onto other levels."""
    n = draw(st.integers(3, 40))
    y = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    end = draw(st.sampled_from([None, 8, 16, 32, 64, 128]))
    if end is not None:
        y[0] = y[-1] = end
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=n,
                          max_size=n))
    return IntensityTrace(times=np.cumsum(steps), intensity=np.array(y, float),
                          detector_x=0.0, theory="synthetic")


def _peaks_or_reason(find, trace, fraction):
    try:
        return find(trace, fraction)
    except NoFringes as exc:
        return f"NoFringes: {exc}"


class TestExtractFringes:
    # a plateau at exactly the threshold, 8 = 64 / 8, inside a window that
    # spans every sample
    @example(IntensityTrace(times=np.arange(10.0),
                            intensity=np.array([64.0, 0, 8, 8, 0, 4, 0, 8, 0,
                                                64]),
                            detector_x=0.0, theory="synthetic"), 0.125)
    @settings(max_examples=400, deadline=None)
    @given(quantized_traces(), st.sampled_from([0.125, 0.25, 0.375, 0.5]))
    def test_peaks_match_per_sample_reference(self, trace, fraction):
        got = _peaks_or_reason(
            lambda tr, f: extract_fringes(tr, f).peak_times, trace, fraction)
        assert got == _peaks_or_reason(reference_peak_times, trace, fraction)

    @control_runs_closed_form
    @pytest.mark.parametrize("theory", THEORIES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_desk_peaks_match_row_by_row_reference(self, theory, engine):
        trace = two_gate_run(theory, replace(DESK_SCALE, engine=engine)).trace
        got = extract_fringes(trace).peak_times
        assert len(got) >= 2
        assert got == reference_peak_times(trace, 0.1)

    # odd and even counts, ties, and middle pairs whose sum rounds
    @example([0.5])
    @example([4.0, 1.0, 3.0, 2.0])
    @example([0.3, 0.1, 0.1, 0.3, 0.1])
    @example([0.1, 0.2, 0.7, 0.3])
    @example([1.0, np.nextafter(1.0, 2.0), 1.0, 3.0])
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0 / 3.0])
                    | st.floats(1e-3, 1e3), min_size=1, max_size=12))
    def test_median_is_np_median(self, values):
        gaps = np.array(values)
        assert _median(gaps).hex() == float(np.median(gaps)).hex()

    @control_runs_closed_form
    @pytest.mark.parametrize("theory", THEORIES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_desk_spacing_is_the_np_median_gap(self, theory, engine):
        trace = two_gate_run(theory, replace(DESK_SCALE, engine=engine)).trace
        report = extract_fringes(trace)
        gaps = np.diff(report.peak_times)
        assert report.spacing_T.hex() == float(np.median(gaps)).hex()

    @pytest.mark.parametrize("bump,flat", [
        # a plateau: its leftmost sample is the peak, and the parabola
        # through 1, 3, 3 has its vertex half a step to the right
        ([0.0, 1.0, 3.0, 3.0, 1.0, 0.0], 0),
        # a flat top just below 1: the three samples 1 - 2^-53, 1, 1 give
        # denom = (1 - 2^-53 - 2) + 1 = 0 after rounding, so each peak is
        # its sample time
        ([0.0, np.nextafter(1.0, 0.0), 1.0, 1.0, 0.0], 6),
    ])
    def test_flat_peaks_match_row_by_row_reference(self, bump, flat):
        y = np.tile(bump, 6)
        trace = IntensityTrace(times=0.5 * np.arange(len(y)), intensity=y,
                               detector_x=0.0, theory="synthetic")
        got = extract_fringes(trace).peak_times
        assert got == reference_peak_times(trace, 0.1)
        assert sum(p in trace.times for p in got) == flat

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

    @pytest.mark.parametrize("scale", [2.0**-1000, 1.0, 2.0**1000, 1e307])
    def test_peaks_are_exact_under_power_of_two_rescaling(self, scale):
        # the sums are taken on the trace scaled by a power of two; at 1e305
        # and above they used to overflow, and no fringes were found
        trace = planted_trace()
        scaled = IntensityTrace(times=trace.times,
                                intensity=scale * trace.intensity,
                                detector_x=0.0, theory="synthetic")
        got = extract_fringes(scaled).peak_times
        assert len(got) == 17
        assert got == extract_fringes(trace).peak_times

    @pytest.mark.parametrize("scale", [2.0**-1000, 1.0, 2.0**1000],
                             ids=["2^-1000", "1", "2^1000"])
    def test_peaks_are_exact_under_power_of_two_time_rescaling(self, scale):
        # the moment sums are taken on the times scaled by a power of two;
        # at 2^1000 the squared offsets used to overflow, and no fringes
        # were found
        trace = planted_trace()
        scaled = IntensityTrace(times=scale * trace.times,
                                intensity=trace.intensity,
                                detector_x=0.0, theory="synthetic")
        got = extract_fringes(scaled).peak_times
        assert len(got) == 17
        assert got == [scale * p for p in extract_fringes(trace).peak_times]

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["times", "intensity"])
    def test_trace_rejects_non_finite_samples(self, bad, column):
        data = {"times": np.array([0.0, 1.0, 2.0]),
                "intensity": np.array([1.0, 2.0, 1.0])}
        data[column][-1] = bad
        with pytest.raises(DomainError, match="finite"):
            IntensityTrace(**data, detector_x=0.0, theory="x")


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

    @pytest.mark.parametrize("param,values", [
        ("gate_spacing", [12.0, 24.0, 18.0]),
        ("flight_distance", [3.0, 2.0]),
    ])
    def test_rows_equal_direct_runs(self, param, values):
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, values, 0.1,
                               param=param)
        for row, value in zip(rows, values, strict=True):
            outcome = two_gate_run(STUECKELBERG,
                                   replace(DESK_SCALE, **{param: value}))
            report = extract_fringes(outcome.trace, 0.1,
                                     outcome.predicted_spacing)
            assert row.value == value
            assert row.visibility == outcome.interference_visibility
            assert row.spacing_T == report.spacing_T
            assert row.error is None

    def test_row_below_visibility_floor_keeps_its_visibility(self):
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, [12.0, 96.0])
        direct = two_gate_run(STUECKELBERG,
                              replace(DESK_SCALE, gate_spacing=96.0))
        vis = direct.interference_visibility
        assert rows[0].error is None
        assert rows[1].visibility == vis < MIN_INTERFERENCE_VISIBILITY
        assert rows[1].spacing_T is None
        assert rows[1].error == (
            f"NoFringes: interference visibility {vis:.3g} is below the "
            f"floor of {MIN_INTERFERENCE_VISIBILITY}; the peaks left are "
            "the gate envelopes")

    def test_bad_row_is_isolated(self):
        rows = visibility_scan(STUECKELBERG, DESK_SCALE, [12.0, -1.0])
        assert rows[0].error is None
        assert rows[1].error is not None
        assert math.isnan(rows[1].visibility)

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            visibility_scan(STUECKELBERG, DESK_SCALE, [12.0])

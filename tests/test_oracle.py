from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import mp_oracle
from timefringe.experiments import DESK_SCALE, build_packet, two_gate_run
from timefringe.propagation import (CLOSED_FORM, FLOQUET, QUADRATURE,
                                    STUECKELBERG)


@pytest.mark.parametrize("engine", [CLOSED_FORM, QUADRATURE])
@pytest.mark.parametrize("theory", [FLOQUET, STUECKELBERG])
def test_desk_trace_matches_the_oracle(theory, engine):
    # 61 samples of the desk trace against the 40-digit integral; measured
    # at most 5.1e-14 of the peak in closed form and 3.2e-13 by quadrature
    cfg = replace(DESK_SCALE, engine=engine)
    trace = two_gate_run(theory, cfg).trace
    picks = np.linspace(0, len(trace.times) - 1, 61).round().astype(int)
    oracle = mp_oracle.detector_intensities(
        build_packet(cfg), theory, cfg.s_star, cfg.flight_distance,
        trace.times[picks])
    error = np.max(np.abs(trace.intensity[picks] - oracle))
    assert error <= 1e-12 * np.max(trace.intensity)


@pytest.mark.parametrize("t", [-3.0, 10.2, 25.0])
def test_oracle_forms_are_the_kernel_integral(t):
    # each closed form against mpmath's quadrature of its own integral, at
    # the desk flight parameter on the covariant time axis (mu = -1)
    s, mu, energy, w, t_k = 10, -1, mp.mpf("1.02"), mp.mpf("0.5"), 12
    with mp.workdps(25):
        def kernel(u):
            return (mp.sqrt(mu / (2 * mp.pi * 1j * s))
                    * mp.exp(1j * mu * (t - u) ** 2 / (2 * s)))
        rect = mp.quad(lambda u: kernel(u) * mp.exp(-1j * energy * u),
                       [t_k - w / 2, t_k, t_k + w / 2])
        assert abs(mp_oracle.fresnel_spread(
            t, mu, s, t_k - w / 2, t_k + w / 2, energy) - rect) < 1e-20
        a, b, c = 1 / (2 * w ** 2), t_k / w ** 2 - 1j * energy, -t_k ** 2 / (
            2 * w ** 2)
        gauss = mp.quad(lambda u: kernel(u) * mp.exp(-a * u * u + b * u + c),
                        [t_k - 12 * w, t_k, t_k + 12 * w])
        assert abs(mp_oracle.gaussian_spread(t, mu, s, a, b, c)
                   - gauss) < 1e-20

"""A 40-digit mpmath oracle for the detector amplitude X(x_d) sum_k T_k(t).

A helper for the tests, not collected as tests itself. It reads only the
packet's parameters, none of the package's numerics. Each factor is the
completed-square integral of the module docstring of propagation.py,

    int dx' C exp(i beta (x-x')^2) exp(-a x'^2 + b x' + c)
        = C sqrt(pi/gamma) exp(i beta x^2 + (b - 2 i beta x)^2 / (4 gamma) + c),
    gamma = a - i beta,  beta = mu / 2s,  C = sqrt(mu / (2 pi i s)),

with mass mu = +1 on x and mu = -1 (that is, -M c^2) on the covariant time
axis. A rectangular gate has no Gaussian form; it spreads by the Fresnel
integrals (Moshinsky, Phys. Rev. 88, 625, 1952): fresnel_spread.
"""

import mpmath as mp

DIGITS = 40


def _kernel_prefactor(mu, s):
    # the principal square root, as the package's axis_prefactor takes it
    return mp.sqrt(mu / (2 * mp.pi * 1j * s))


def gaussian_spread(x, mu, s, a, b, c):
    """int dx' K_{mu,s}(x - x') exp(-a x'^2 + b x' + c), Re(a) > 0."""
    beta = mp.mpf(mu) / (2 * s)
    gamma = a - 1j * beta
    return (_kernel_prefactor(mu, s) * mp.sqrt(mp.pi / gamma)
            * mp.exp(1j * beta * x * x + (b - 2j * beta * x) ** 2
                     / (4 * gamma) + c))


def fresnel_spread(t, mu, s, lo, hi, energy):
    """int_lo^hi dt' K_{mu,s}(t - t') exp(-i energy t'): a rectangular gate
    with its carrier. With v = t' - t - energy / 2 beta the exponent is
    i beta v^2 - i energy t - i energy^2 / 4 beta, and
    int exp(i beta v^2) dv = sqrt(pi / 2|beta|) (C(z) + i sign(beta) S(z)),
    z = v sqrt(2|beta| / pi)."""
    beta = mp.mpf(mu) / (2 * s)
    shift = t + energy / (2 * beta)
    scale = mp.sqrt(2 * abs(beta) / mp.pi)
    z1, z2 = (lo - shift) * scale, (hi - shift) * scale
    fresnel = (mp.fresnelc(z2) - mp.fresnelc(z1)
               + 1j * mp.sign(beta) * (mp.fresnels(z2) - mp.fresnels(z1)))
    return (_kernel_prefactor(mu, s) * fresnel / scale
            * mp.exp(-1j * energy * t - 1j * energy ** 2 / (4 * beta)))


def detector_amplitudes(packet, theory, s, x_d, times):
    """X(x_d) sum_k T_k(t) at each of times, as mpmath complex numbers, for
    the time-shift ("floquet") or covariant ("stueckelberg") theory and
    Gaussian gates. The gates are normalized here, from the closed-form
    overlaps of their unit envelopes."""
    with mp.workdps(DIGITS):
        s, x_d = mp.mpf(s), mp.mpf(x_d)
        sp = packet.spatial
        sigma, x0, p0 = (mp.mpf(sp.width_sigma_x), mp.mpf(sp.center_x),
                         mp.mpf(sp.mean_momentum_p0))
        x_value = gaussian_spread(
            x_d, 1, s, 1 / (2 * sigma ** 2), x0 / sigma ** 2 + 1j * p0,
            -x0 ** 2 / (2 * sigma ** 2) - mp.log(mp.pi * sigma ** 2) / 4)
        energy = mp.mpf(packet.mean_energy_E0)
        gates = [(mp.mpf(g.center_t), mp.mpf(g.width_delta_t))
                 for g in packet.gates]
        norm2 = sum(mp.sqrt(mp.pi / (1 / (2 * wj ** 2) + 1 / (2 * wk ** 2)))
                    * mp.exp(-(tj - tk) ** 2 / (2 * (wj ** 2 + wk ** 2)))
                    for tj, wj in gates for tk, wk in gates)
        log_amp = -mp.log(norm2) / 2

        def gate(t, t_k, w):
            if theory == "floquet":  # a rigid shift by s
                u = t - s
                return mp.exp(-(u - t_k) ** 2 / (2 * w ** 2)
                              - 1j * energy * u + log_amp)
            return gaussian_spread(t, -1, s, 1 / (2 * w ** 2),
                                   t_k / w ** 2 - 1j * energy,
                                   -t_k ** 2 / (2 * w ** 2) + log_amp)
        return [x_value * sum(gate(mp.mpf(float(t)), t_k, w)
                              for t_k, w in gates) for t in times]


def detector_intensities(packet, theory, s, x_d, times) -> list:
    """|X(x_d) sum_k T_k(t)|^2 at each of times, rounded to floats."""
    with mp.workdps(DIGITS):
        return [float(abs(a) ** 2) for a in
                detector_amplitudes(packet, theory, s, x_d, times)]

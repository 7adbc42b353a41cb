import numpy as np
import pytest

from timefringe.errors import DomainError
from timefringe.numerics import simpson_weights


def test_weights_sum_to_span():
    for n in (3, 5, 33, 34):
        w = simpson_weights(n, 0.25)
        assert np.sum(w) == pytest.approx(0.25 * (n - 1), rel=1e-12)


def test_exact_for_cubics_on_odd_grids():
    x = np.linspace(0.0, 2.0, 41)
    y = 3 * x**3 - x**2 + 4 * x - 1
    exact = 3 * 4.0 - 8.0 / 3 + 8.0 - 2.0
    assert simpson_weights(41, x[1] - x[0]) @ y == pytest.approx(exact,
                                                        rel=1e-12)


def test_even_grid_converges():
    exact = 1.0 - np.cos(1.0)
    errs = []
    for n in (64, 128):
        x = np.linspace(0.0, 1.0, n)
        errs.append(abs(simpson_weights(n, x[1] - x[0]) @ np.sin(x) - exact))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-6


def test_rejects_tiny_grids():
    with pytest.raises(DomainError):
        simpson_weights(1, 0.1)
    with pytest.raises(DomainError):
        simpson_weights(3, 0.0)

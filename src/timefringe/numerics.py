"""Deterministic quadrature helpers.

Composite Simpson on uniform grids with a fixed summation order, so results
are bit-identical run to run. Even sample counts fall back to a trapezoid
panel on the last interval (grids are padded so the edge contribution is
negligible).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def simpson_weights(n: int, h: float) -> np.ndarray:
    if n < 3:
        raise DomainError("Simpson quadrature needs at least 3 samples")
    if h <= 0:
        raise DomainError("Simpson quadrature needs a positive step")
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1  # odd count covered by Simpson panels
    w[0] = 1.0
    w[m - 1] = 1.0
    w[1:m - 1:2] = 4.0
    w[2:m - 1:2] = 2.0
    w *= h / 3.0
    if n % 2 == 0:
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


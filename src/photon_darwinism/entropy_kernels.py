"""Entropy kernels shared by every information-theoretic routine.

Everything here is a pure function of dimensionless arguments and returns
information in nats. The central object is ``h``, the series

    h(x) = sum_{n>=1} x^n / (2n(2n-1))
         = sqrt(x) arctanh(sqrt(x)) + ln sqrt(1-x),

which gives the entropy deficit of a two-level state whose off-diagonal
coherence squared is x. The other kernels are thin reformulations: the
entropy of a spectrum {(1 +- g)/2} and of the M-fold analogue with uniform
off-diagonal coupling.
"""

from __future__ import annotations

import math

import numpy as np

# Information measured in natural-log units. Plain floats throughout; the
# alias only documents intent in signatures.
Nats = float

LN2 = math.log(2.0)

# Below this argument the closed form loses digits to cancellation between
# the arctanh and log terms, so the power series takes over.
_SERIES_CUTOVER = 1e-3


def xlogx(x):
    """Elementwise x ln x, with 0 ln 0 = 0 and NaN (or x < 0) giving NaN.

    Returns an array of the input's shape. Each element goes through the
    C library's ``math.log``, not ``np.log``, whose vectorised kernels can
    differ in the last bit; so the result equals ``scipy.special.xlogy(x,
    x)`` bit for bit.
    """
    arr = np.asarray(x, dtype=float)
    return np.array([
        v * math.log(v) if v > 0.0 else 0.0 if v == 0.0 else math.nan
        for v in arr.ravel().tolist()
    ]).reshape(arr.shape)


def h_power_series(x: float, terms: int) -> tuple[float, float]:
    """Partial sum of sum x^n / (2n(2n-1)) plus a rigorous tail bound.

    Returns (partial_sum, tail_bound) with

        partial_sum <= h(x) <= partial_sum + tail_bound,

    the bound being x^(terms+1) / ((2*terms+1)(2*terms+2)(1-x)) from
    comparison with a geometric series. Only valid for x < 1.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"series argument must be in [0, 1), got {x}")
    if terms < 1:
        raise ValueError("need at least one term")
    total = 0.0
    xn = x
    for n in range(1, terms + 1):
        total += xn / (2 * n * (2 * n - 1))
        xn *= x
    # xn is now x^(terms+1)
    bound = xn / ((2 * terms + 1) * (2 * terms + 2) * (1.0 - x))
    return total, bound


def h(x: float) -> Nats:
    """The entropy-deficit kernel, monotone from h(0) = 0 to h(1) = ln 2.

    Satisfies x/2 <= h(x) <= x ln 2 on [0, 1]. Evaluated by the closed
    form rewritten as half the symmetric binary divergence in u = sqrt(x),

        h(x) = [(1+u) ln(1+u) + (1-u) ln(1-u)] / 2,

    which is stable for u away from 0; a short power series covers the
    small-x end where that expression would cancel.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"h argument must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        # Removable singularity: arctanh diverges but the limit is ln 2.
        return LN2
    if x < _SERIES_CUTOVER:
        # Terms shrink by at least a factor x < 1e-3, so a handful suffice
        # for full double precision.
        total, _ = h_power_series(x, 6)
        return total
    u = math.sqrt(x)
    return 0.5 * ((1.0 + u) * math.log1p(u) + (1.0 - u) * math.log1p(-u))


def binary_entropy_from_gap(x: float) -> Nats:
    """Entropy of the spectrum {(1+x)/2, (1-x)/2}.

    Identically equal to ln 2 - h(x^2). The direct form is kept because
    callers hand in an eigenvalue gap, not a squared coherence.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"gap must be in [0, 1], got {x}")
    p = 0.5 * (1.0 + x)
    q = 0.5 * (1.0 - x)
    return float(-(xlogx(p) + xlogx(q)))


def m_spectrum_entropy(x: float, M: int) -> Nats:
    """Entropy of the M x M density matrix with diagonal 1/M, off-diagonal x/M.

    Its spectrum is (1 + (M-1)x)/M once and (1-x)/M with multiplicity M-1,
    so the entropy runs from ln M at x = 0 down to 0 at x = 1. Reduces to
    binary_entropy_from_gap(x) at M = 2.

    The analytic spectrum is used rather than a series in x; the matching
    power series only converges for x < 1/(M-1) and is exercised in tests,
    not here.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"coupling must be in [0, 1], got {x}")
    if not isinstance(M, int) or M < 2:
        raise ValueError(f"branch count must be an integer >= 2, got {M}")
    top = (1.0 + (M - 1) * x) / M
    rest = (1.0 - x) / M
    return float(-(xlogx(top) + (M - 1) * xlogx(rest)))

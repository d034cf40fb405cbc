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

__all__ = [
    "LN2",
    "h",
    "h_power_series",
    "binary_entropy_from_gap",
    "m_spectrum_entropy",
    "xlogx",
]

# Information measured in natural-log units. Plain floats throughout; the
# alias only documents intent in signatures.
Nats = float

LN2 = math.log(2.0)

# Below this argument the closed form loses digits to cancellation between
# the arctanh and log terms, so the power series takes over.
_SERIES_CUTOVER = 1e-3


def _libm(fn, *args) -> np.ndarray:
    """A ``math`` function applied element by element, with broadcasting.

    numpy's exp, log, log1p and power differ from the C library's in the
    last bit on a few percent of inputs, so the information kernels (h,
    the mutual informations, redundancy) send them through here: an array
    result then equals a loop of scalar calls bit for bit, on every host.
    Arithmetic stays in numpy, whose + - * / and sqrt are correctly
    rounded. The grid trig, the Planck nodes, the moment series and the
    branch-matrix powers use numpy's own functions.
    """
    arrays = [np.asarray(a, dtype=float) for a in args]
    shape = arrays[0].shape if len(arrays) == 1 else np.broadcast(*arrays).shape
    size = math.prod(shape)
    columns = [a.ravel().tolist() if a.shape == shape
               else [a.item()] * size if a.ndim == 0
               else np.broadcast_to(a, shape).ravel().tolist()
               for a in arrays]
    return np.fromiter(map(fn, *columns), float, size).reshape(shape)


def _stacked(parts, *others) -> np.ndarray:
    """The parts stacked along a new first axis, each broadcast to the
    shape that the parts and the other operands of the caller share.

    One kernel call on the stack then does the work of one call per part.
    """
    out = np.empty((len(parts),) + np.broadcast(*parts, *others).shape)
    for i, part in enumerate(parts):
        out[i] = part
    return out


def _result(values):
    """A Python float for a 0-d result, the array otherwise."""
    return float(values) if np.ndim(values) == 0 else values


def _require(ok, values, message: str) -> None:
    """Raise ValueError naming the first of values where ok is False."""
    if not ok.all():
        bad = values[np.logical_not(ok)]
        raise ValueError(message.format(bad.flat[0].item()))


def _check_unit(name: str, value) -> np.ndarray:
    """value as a float array, rejected by name unless it lies in [0, 1]."""
    value = np.asarray(value, dtype=float)
    _require((0.0 <= value) & (value <= 1.0), value,
             name + " must be in [0, 1], got {}")
    return value


def xlogx(x):
    """Elementwise x ln x, with 0 ln 0 = 0 and NaN (or x < 0) giving NaN.

    Returns an array of the input's shape. Each element goes through the
    C library's ``math.log``, not ``np.log``, whose vectorised kernels can
    differ in the last bit; so the result equals ``scipy.special.xlogy(x,
    x)`` bit for bit. The expression is inlined rather than mapped through
    _libm: most calls pass a handful of eigenvalues, and a Python function
    call per element costs more than the whole evaluation.
    """
    arr = np.asarray(x, dtype=float)
    return np.array([
        v * math.log(v) if v > 0.0 else 0.0 if v == 0.0 else math.nan
        for v in arr.ravel().tolist()
    ]).reshape(arr.shape)


def _series_sum(x, terms: int):
    """(sum_{n<=terms} x^n / (2n(2n-1)), x^(terms+1)), summed term by term."""
    total = 0.0
    xn = x
    for n in range(1, terms + 1):
        total = total + xn / float(2 * n * (2 * n - 1))
        xn = xn * x
    return total, xn


def h_power_series(x, terms: int):
    """Partial sum of sum x^n / (2n(2n-1)) plus a rigorous tail bound.

    Returns (partial_sum, tail_bound) with

        partial_sum <= h(x) <= partial_sum + tail_bound,

    the bound being x^(terms+1) / ((2*terms+1)(2*terms+2)(1-x)) from
    comparison with a geometric series. Only valid for x < 1. Broadcasts
    over an array x; a scalar x gives two floats.
    """
    x = np.asarray(x, dtype=float)
    _require((0.0 <= x) & (x < 1.0), x,
             "series argument must be in [0, 1), got {}")
    if terms is True or not (isinstance(terms, (int, np.integer)) and terms >= 1):
        raise ValueError(f"terms must be an integer >= 1, got {terms!r}")
    terms = int(terms)  # no wrap-around in 2 * terms for a small numpy integer
    total, xn = _series_sum(x, terms)
    bound = xn / ((2 * terms + 1) * (2 * terms + 2) * (1.0 - x))
    return _result(total), _result(bound)


def h(x):
    """The entropy-deficit kernel, monotone from h(0) = 0 to h(1) = ln 2.

    Satisfies x/2 <= h(x) <= x ln 2 on [0, 1]. Evaluated by the closed
    form rewritten as half the symmetric binary divergence in u = sqrt(x),

        h(x) = [(1+u) ln(1+u) + (1-u) ln(1-u)] / 2,

    which is stable for u away from 0; the power series of
    h_power_series covers the small-x end where that expression would
    cancel.

    Broadcasts over an array x and returns an array of its shape; a scalar
    x gives a float. Each element equals the scalar evaluation bit for
    bit, because log1p goes through ``math`` per element.
    """
    x = _check_unit("h argument", x)
    # Terms shrink by at least a factor x < 1e-3, so a handful suffice for
    # full double precision; x = 0 sums to exactly 0. The series is cheap
    # next to a logarithm, so it runs on every lane and the closed form
    # replaces it where x >= 1e-3.
    out = np.asarray(_series_sum(x, 6)[0])
    closed = (x >= _SERIES_CUTOVER) & (x < 1.0)
    if closed.any():
        u = np.sqrt(x[closed])
        out[closed] = 0.5 * ((1.0 + u) * _libm(math.log1p, u)
                             + (1.0 - u) * _libm(math.log1p, -u))
    # Removable singularity: arctanh diverges but the limit is ln 2.
    return _result(np.where(x == 1.0, LN2, out))


def binary_entropy_from_gap(x: float) -> Nats:
    """Entropy of the spectrum {(1+x)/2, (1-x)/2}.

    Identically equal to ln 2 - h(x^2): the two-branch m_spectrum_entropy,
    for callers that hand in an eigenvalue gap, not a squared coherence.
    """
    _check_unit("gap", x)
    return m_spectrum_entropy(x, 2)


def m_spectrum_entropy(x, M):
    """Entropy of the M x M density matrix with diagonal 1/M, off-diagonal x/M.

    Its spectrum is (1 + (M-1)x)/M once and (1-x)/M with multiplicity M-1,
    so the entropy runs from ln M at x = 0 down to 0 at x = 1. Reduces to
    binary_entropy_from_gap(x) at M = 2.

    The analytic spectrum is used rather than a series in x; the matching
    power series only converges for x < 1/(M-1) and is exercised in tests,
    not here. Broadcasts over arrays of x and of integer-valued M; scalar
    arguments give a float.
    """
    x = _check_unit("coupling", x)
    M = np.asarray(M)
    integral = M >= 2
    if M.dtype.kind == "f":
        integral &= np.isfinite(M) & (M == np.floor(M))
    _require(integral, M, "branch count must be an integer >= 2, got {}")
    top = (1.0 + (M - 1) * x) / M
    rest = (1.0 - x) / M
    return _result(-(xlogx(top) + (M - 1) * xlogx(rest)))

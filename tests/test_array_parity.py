"""Array calls of the information layer against the scalar formulas.

The reference functions below are the scalar implementations that the
array code replaced, kept in operation order: one Python float at a time
through ``math``. A Gamma enters them as t = -ln Gamma (t = inf at
Gamma = 0) and each power Gamma^w as exp(-t w), with Gamma^0 = 1 at
Gamma = 0, as in the library. Every array call must equal a per-point loop
over them bit for bit, including the sign of zero, on the domain edges
(x at 0 and 1 and either side of the series cutover, alpha at 0 and 1,
f at 0 and 1, t from 1e-3 to 1e4) and on every redundancy outcome. The
redundancy estimate and lower bound are checked the same way against
their scalar formulas.
"""

import math
import warnings

import numpy as np
import pytest

from photon_darwinism.entropy_kernels import (
    LN2,
    h,
    h_power_series,
    m_spectrum_entropy,
)
from photon_darwinism.information import (
    fragment_entropy_change,
    mutual_information,
    mutual_information_at_time,
    redundancy_estimate,
    redundancy_exact,
    redundancy_lower_bound,
    system_entropy,
)
from photon_darwinism.superpositions import mi_mway, mi_unbalanced

# ---------------------------------------------------------------------------
# scalar reference


def ref_h_power_series(x, terms):
    total = 0.0
    xn = x
    for n in range(1, terms + 1):
        total += xn / (2 * n * (2 * n - 1))
        xn *= x
    bound = xn / ((2 * terms + 1) * (2 * terms + 2) * (1.0 - x))
    return total, bound


def ref_h(x):
    if not 0.0 <= x <= 1.0:
        raise ValueError(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return LN2
    if x < 1e-3:
        return ref_h_power_series(x, 6)[0]
    u = math.sqrt(x)
    return 0.5 * ((1.0 + u) * math.log1p(u) + (1.0 - u) * math.log1p(-u))


def ref_t(gamma):
    return -math.log(gamma) if gamma > 0.0 else math.inf


def ref_decay(t, *factors):
    """exp(-t w) with -t multiplied by each factor in turn; Gamma^0 = 1."""
    x = -t
    for factor in factors:
        x *= factor
    return 1.0 if math.isnan(x) else math.exp(x)


def ref_mi_at_time(t, alpha, f):
    fragment = ref_decay(t, alpha, f)
    if fragment == 1.0:
        # h(1) = ln 2 cancels the leading ln 2 exactly: I(0) = 0.
        return ref_h(ref_decay(t, 1.0 - f)) - ref_h(ref_decay(t))
    return (
        LN2
        + ref_h(ref_decay(t, 1.0 - f))
        - ref_h(fragment)
        - ref_h(ref_decay(t))
    )


def ref_mi(gamma, alpha, f):
    return ref_mi_at_time(ref_t(gamma), alpha, f)


def ref_xlogx(v):
    return v * math.log(v) if v > 0.0 else 0.0


def ref_m_spectrum_entropy(x, M):
    top = (1.0 + (M - 1) * x) / M
    rest = (1.0 - x) / M
    return -(ref_xlogx(top) + (M - 1) * ref_xlogx(rest))


def ref_mi_unbalanced(gamma, f, mu):
    t = ref_t(gamma)

    def shifted(w):
        return ref_h(mu + (1.0 - mu) * ref_decay(t, w))

    return LN2 + shifted(1.0 - f) - shifted(f) - shifted(1.0)


def ref_mi_mway(gamma, f, M):
    t = ref_t(gamma)

    def E(w):
        return ref_m_spectrum_entropy(ref_decay(t, 0.5 * w), M)

    return E(f) + E(1.0) - E(1.0 - f)


def ref_redundancy(t, alpha, delta, f_tol=1e-12):
    """The scalar bisection on the exponent form; None when not redundant."""
    if t == 0.0:
        return None
    target = (1.0 - delta) * LN2

    def shortfall(f):
        return ref_mi_at_time(t, alpha, f) - target

    hi = 0.5
    if shortfall(hi) < 0.0:
        return None
    lo = 0.0
    while hi - lo > f_tol:
        mid = 0.5 * (lo + hi)
        if shortfall(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 2.0 / (lo + hi)


def ref_redundancy_estimate(t_over_tauD, alpha, delta):
    return alpha * t_over_tauD / math.log(1.0 / (2.0 * delta * LN2))


def ref_redundancy_lower_bound(t_over_tauD, delta):
    gamma = math.exp(-t_over_tauD)
    return t_over_tauD / math.log(1.0 / (delta - gamma))


# ---------------------------------------------------------------------------
# helpers


def assert_bitwise(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def loop(ref, *arrays):
    """ref evaluated point by point over the broadcast of arrays."""
    cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    return np.array([ref(*point) for point in zip(*(c.ravel().tolist()
                                                   for c in cols))],
                    dtype=float).reshape(cols[0].shape)


CUT = 1e-3
KERNEL_X = np.concatenate([
    [0.0, -0.0, 1.0, 5e-324, 1e-300, 1e-30, 1e-12,
     np.nextafter(CUT, 0.0), CUT, np.nextafter(CUT, 1.0), 0.5,
     np.nextafter(1.0, 0.0)],
    np.random.default_rng(7).random(500),
    10.0 ** np.random.default_rng(8).uniform(-12.0, 0.0, 500),
])
TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 29)])
ALPHAS = np.array([0.0, 1e-8, 0.003, 0.37, 1.0])
FRACTIONS = np.concatenate([[0.0, 1.0, 0.5, 1e-12],
                            np.linspace(0.0, 1.0, 13)])


# ---------------------------------------------------------------------------
# kernels


def test_h_matches_scalar_reference():
    assert_bitwise(h(KERNEL_X), loop(ref_h, KERNEL_X))
    assert_bitwise(h(KERNEL_X.reshape(2, -1)),
                   loop(ref_h, KERNEL_X).reshape(2, -1))


def test_h_power_series_matches_scalar_reference():
    x = KERNEL_X[KERNEL_X < 1.0]
    for terms in (1, 6, 11):
        total, bound = h_power_series(x, terms)
        assert_bitwise(total, loop(lambda v: ref_h_power_series(v, terms)[0], x))
        assert_bitwise(bound, loop(lambda v: ref_h_power_series(v, terms)[1], x))


def test_m_spectrum_entropy_matches_scalar_reference():
    x = KERNEL_X[:, None]
    M = np.array([2, 3, 7, 40])
    assert_bitwise(m_spectrum_entropy(x, M), loop(ref_m_spectrum_entropy, x, M))


# ---------------------------------------------------------------------------
# mutual information


def test_mi_at_time_grid_matches_scalar_reference():
    t = TIMES[:, None, None]
    alpha = ALPHAS[None, :, None]
    f = FRACTIONS[None, None, :]
    assert_bitwise(mutual_information_at_time(t, alpha, f),
                   loop(ref_mi_at_time, t, alpha, f))


def test_mi_at_time_grid_rows_equal_single_time_calls():
    # A times x fractions grid, as the pip command asks for it, equals one
    # row per time.
    t = TIMES[:, None]
    grid = mutual_information_at_time(t, 0.37, FRACTIONS)
    for i, ti in enumerate(TIMES):
        assert_bitwise(grid[i], mutual_information_at_time(ti, 0.37, FRACTIONS))


def test_mi_gamma_form_matches_scalar_reference():
    gamma = np.concatenate([[0.0, 1.0], np.exp(-TIMES)])[:, None, None]
    alpha = ALPHAS[None, :, None]
    f = FRACTIONS[None, None, :]
    assert_bitwise(mutual_information(gamma, alpha, f),
                   loop(ref_mi, gamma, alpha, f))
    grid = np.linspace(0.0, 1.0, 41)
    assert_bitwise(mutual_information(0.01, 0.37, grid),
                   loop(ref_mi, 0.01, 0.37, grid))


def test_entropy_helpers_match_scalar_reference():
    gamma = np.concatenate([[0.0, 1.0], np.exp(-TIMES)])
    assert_bitwise(system_entropy(gamma), loop(lambda g: LN2 - ref_h(g), gamma))
    assert_bitwise(
        fragment_entropy_change(gamma[:, None], 0.37, FRACTIONS),
        loop(lambda g, f: LN2 - ref_h(ref_decay(ref_t(g), 0.37, f)),
             gamma[:, None], FRACTIONS))


def test_mi_unbalanced_matches_scalar_reference():
    gamma = np.concatenate([[0.0, 1.0], np.exp(-TIMES)])[:, None, None]
    f = FRACTIONS[None, :, None]
    mu = np.array([0.0, 1e-9, 0.2, 0.5, 0.999, 1.0])[None, None, :]
    assert_bitwise(mi_unbalanced(gamma, f, mu),
                   loop(ref_mi_unbalanced, gamma, f, mu))


# Perfect decoherence, Gamma = 0, is t = inf, where -t w is NaN at w = 0;
# Gamma^0 = 1 keeps the values that the powers of Gamma gave, pinned here
# over f = 0, 0.3 and 1.
PERFECT_F = np.array([0.0, 0.3, 1.0])
TWO_LN2 = 1.3862943611198906


def test_perfect_decoherence_keeps_its_values():
    alpha = np.array([0.0, 0.37, 1.0])[:, None]
    assert_bitwise(mutual_information(0.0, alpha, PERFECT_F),
                   [[0.0, 0.0, LN2], [0.0, LN2, TWO_LN2], [0.0, LN2, TWO_LN2]])
    assert_bitwise(fragment_entropy_change(0.0, alpha, PERFECT_F),
                   [[0.0, 0.0, 0.0], [0.0, LN2, LN2], [0.0, LN2, LN2]])
    mu = np.array([0.0, 0.5, 1.0])[:, None]
    assert_bitwise(mi_unbalanced(0.0, PERFECT_F, mu),
                   [[0.0, LN2, TWO_LN2],
                    [0.0, 0.41649553069968737, 0.8329910613993746],
                    [0.0, 0.0, 0.0]])
    M = np.array([2, 3, 9])[:, None]
    assert_bitwise(mi_mway(0.0, PERFECT_F, M),
                   [[0.0, LN2, TWO_LN2],
                    [0.0, 1.0986122886681096, 2.197224577336219],
                    [0.0, 2.1972245773362196, 4.394449154672439]])


def test_mi_mway_matches_scalar_reference():
    gamma = np.concatenate([[0.0, 1.0], np.exp(-TIMES)])[:, None, None]
    f = FRACTIONS[None, :, None]
    M = np.array([2, 3, 5, 9])[None, None, :]
    assert_bitwise(mi_mway(gamma, f, M), loop(ref_mi_mway, gamma, f, M))
    # The sweep passes the branch count as a float array of integers.
    assert_bitwise(mi_mway(0.01, 0.3, np.array([2.0, 3.0, 9.0])),
                   [ref_mi_mway(0.01, 0.3, M) for M in (2, 3, 9)])


# ---------------------------------------------------------------------------
# redundancy


def nan_if_none(value):
    return math.nan if value is None else value


def test_redundancy_lanes_match_scalar_bisection():
    # t = 0, short times that never reach the plateau, and live lanes;
    # alpha and delta vary across lanes too.
    t = np.concatenate([[0.0, 0.5, 3.0], np.geomspace(5.0, 1e4, 21)])
    alpha = np.array([1.0, 0.25, 1e-3])[:, None]
    delta = np.array([0.3, 0.01, 1e-9])[:, None, None]
    got = redundancy_exact(None, alpha, delta, t_over_tauD=t)
    want = loop(lambda *point: nan_if_none(ref_redundancy(*point)),
                t, alpha, delta)
    assert_bitwise(got, want)
    assert np.isnan(got).any() and np.isfinite(got).any()


def test_redundancy_gamma_route_lanes():
    gamma = np.array([0.0, 1.0, math.exp(-2.0), math.exp(-80.0), 1e-300])
    got = redundancy_exact(gamma, 1.0, 0.01)
    want = [math.inf, math.nan, math.nan,
            ref_redundancy(-math.log(math.exp(-80.0)), 1.0, 0.01),
            ref_redundancy(-math.log(1e-300), 1.0, 0.01)]
    assert_bitwise(got, want)
    for g, r in zip(gamma, got):
        scalar = redundancy_exact(float(g), 1.0, 0.01)
        assert (scalar is None) if math.isnan(r) else scalar == r


def test_redundancy_with_no_live_lane():
    got = redundancy_exact(None, 1.0, 0.01, t_over_tauD=np.array([0.0, 1.0]))
    assert_bitwise(got, [math.nan, math.nan])


# Each law takes one logarithm per delta (and per time for the bound),
# so many deltas are needed to meet the inputs on which numpy's log and
# the C library's differ.
DELTAS = np.concatenate([
    [1e-15, 1e-9, 0.01, 0.3, 0.72],
    10.0 ** np.random.default_rng(9).uniform(-15.0, math.log10(0.72), 400),
])


def test_redundancy_estimate_matches_scalar_formula():
    t = TIMES[:, None, None]
    alpha = ALPHAS[1:][None, :, None]
    delta = DELTAS[None, None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = redundancy_estimate(t, alpha, delta)
    assert_bitwise(got, loop(ref_redundancy_estimate, t, alpha, delta))


def test_redundancy_lower_bound_matches_scalar_formula():
    # Only times past ln(2/delta) carry a bound; the smallest of them sit
    # just above that edge, where delta - Gamma is smallest.
    delta = DELTAS[:, None]
    edge = np.log(2.0 / delta)
    t = np.concatenate([np.nextafter(edge, np.inf), edge + 1e-9, edge + 1.0,
                        np.broadcast_to(np.geomspace(40.0, 1e4, 9),
                                        (delta.size, 9))], axis=1)
    assert_bitwise(redundancy_lower_bound(t, delta),
                   loop(ref_redundancy_lower_bound, t, delta))


def test_redundancy_laws_match_scalar_formulas_lane_by_lane():
    # numpy's log differs from the C library's on a few inputs in 10^4, so
    # a long run of random lanes meets some of them.
    rng = np.random.default_rng(10)
    n = 20000
    delta = 10.0 ** rng.uniform(-15.0, math.log10(0.72), n)
    alpha = 10.0 ** rng.uniform(-8.0, 0.0, n)
    t = np.log(2.0 / delta) + 10.0 ** rng.uniform(-6.0, 4.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = redundancy_estimate(t, alpha, delta)
    assert_bitwise(got, loop(ref_redundancy_estimate, t, alpha, delta))
    assert_bitwise(redundancy_lower_bound(t, delta),
                   loop(ref_redundancy_lower_bound, t, delta))


def test_redundancy_estimate_warns_once_per_call():
    with pytest.warns(UserWarning) as record:
        redundancy_estimate(np.array([20.0, 1.0, 5.0, 0.0]), 1.0, 0.01)
    assert len(record) == 1
    assert "t/tau_D = 1.0 is in the crossover regime" in str(record[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        redundancy_estimate(np.array([10.0, 400.0]), 1.0, 0.01)


# ---------------------------------------------------------------------------
# scalar calls keep their types


def test_scalar_calls_return_python_floats():
    values = [
        h(0.5), h(0.0), h(1.0), h(1e-4),
        *h_power_series(0.5, 6),
        m_spectrum_entropy(0.3, 3),
        system_entropy(0.3),
        fragment_entropy_change(0.3, 0.5, 0.2),
        mutual_information(0.3, 0.5, 0.2),
        mutual_information(0.3, 0.0, 0.2),
        mutual_information_at_time(10.0, 0.5, 0.2),
        mi_unbalanced(0.3, 0.2, 0.5),
        mi_mway(0.3, 0.2, 3),
        redundancy_exact(None, 1.0, 0.01, t_over_tauD=100.0),
        redundancy_exact(0.0, 1.0, 0.01),
        redundancy_estimate(100.0, 0.5, 0.01),
        redundancy_lower_bound(100.0, 0.01),
    ]
    assert all(type(v) is float for v in values)
    assert redundancy_exact(None, 1.0, 0.01, t_over_tauD=1.0) is None
    assert redundancy_exact(None, 1.0, 0.01, t_over_tauD=0.0) is None
    assert redundancy_exact(1.0, 1.0, 0.01) is None
    assert redundancy_exact(0.0, 1.0, 0.01) == math.inf


def test_array_calls_return_arrays():
    assert isinstance(h(np.array([0.5])), np.ndarray)
    assert h(np.zeros((2, 3))).shape == (2, 3)
    assert mutual_information_at_time(np.ones((4, 1)), 0.5,
                                      np.linspace(0, 1, 5)).shape == (4, 5)
    assert redundancy_exact(None, 1.0, 0.01,
                            t_over_tauD=np.array([100.0])).shape == (1,)
    assert redundancy_estimate(np.array([100.0]), 1.0, 0.01).shape == (1,)
    assert redundancy_lower_bound(np.array([100.0]), 0.01).shape == (1,)


@pytest.mark.parametrize("call, message", [
    (lambda: h(np.array([0.5, 2.0, -1.0])),
     "h argument must be in [0, 1], got 2.0"),
    (lambda: mutual_information_at_time(np.array([1.0, -3.0]), 1.0, 0.2),
     "t_over_tauD must be finite and nonnegative, got -3.0"),
    (lambda: mutual_information(0.5, 1.0, np.array([0.2, 1.5, 2.5])),
     "f must be in [0, 1], got 1.5"),
    (lambda: mi_unbalanced(0.5, 0.2, np.array([0.1, np.nan])),
     "mu must be in [0, 1], got nan"),
    (lambda: mi_mway(0.5, 0.2, np.array([3, 1])),
     "branch count must be an integer >= 2, got 1"),
    (lambda: redundancy_exact(None, np.array([1.0, 0.0]), 0.01,
                              t_over_tauD=10.0),
     "alpha must be in (0, 1], got 0.0"),
    (lambda: redundancy_estimate(np.array([20.0, -1.0, math.inf]), 1.0, 0.01),
     "t_over_tauD must be finite and nonnegative, got -1.0"),
    (lambda: redundancy_estimate(20.0, np.array([0.5, 1.5]), 0.01),
     "alpha must be in (0, 1], got 1.5"),
    (lambda: redundancy_estimate(20.0, 1.0, np.array([0.1, 0.8, 0.0])),
     "delta must be in (0, 1/(2 ln 2) = 0.7213), got 0.8"),
    (lambda: redundancy_lower_bound(np.array([20.0, np.nan]), 0.01),
     "t_over_tauD must be finite and nonnegative, got nan"),
    (lambda: redundancy_lower_bound(20.0, np.array([0.01, 1.0])),
     "delta must be in (0, 1), got 1.0"),
    (lambda: redundancy_lower_bound(np.array([20.0, 3.0, 1.0]), 0.01),
     "bound needs t/tau_D > ln(2/delta) = 5.2983, got 3.0"),
    (lambda: redundancy_lower_bound(6.0, np.array([0.01, 1e-3])),
     "bound needs t/tau_D > ln(2/delta) = 7.6009, got 6.0"),
    (lambda: h(np.array([0.5, np.nan])),
     "h argument must be in [0, 1], got nan"),
    (lambda: redundancy_exact(None, 1.0, np.array([0.01, 1.5]),
                              t_over_tauD=10.0),
     "delta must be in (0, 1), got 1.5"),
    (lambda: redundancy_exact(np.array([0.5, 0.5]), 1.0,
                              np.array([np.nan, 0.01])),
     "delta must be in (0, 1), got nan"),
    (lambda: redundancy_exact(0.5, np.array([1.0, np.nan]), 0.01),
     "alpha must be in (0, 1], got nan"),
    (lambda: redundancy_estimate(20.0, np.array([0.5, -0.5]), 0.01),
     "alpha must be in (0, 1], got -0.5"),
    (lambda: redundancy_lower_bound(20.0, np.array([0.01, np.nan])),
     "delta must be in (0, 1), got nan"),
    (lambda: mutual_information(0.5, 1.0, np.array([-0.1, 0.5])),
     "f must be in [0, 1], got -0.1"),
    (lambda: mutual_information(0.5, 1.0, np.array([0.5, 1.5])),
     "f must be in [0, 1], got 1.5"),
])
def test_array_errors_name_the_first_bad_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

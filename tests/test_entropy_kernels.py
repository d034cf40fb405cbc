"""Unit tests for the shared entropy kernels.

Frozen reference values were computed once with mpmath at 50 digits from
the defining series and are pinned here so the fast float paths have to
keep reproducing them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from photon_darwinism.entropy_kernels import (
    LN2,
    binary_entropy_from_gap,
    h,
    h_power_series,
    m_spectrum_entropy,
    xlogx,
)


def test_h_endpoints_are_exact():
    assert h(0.0) == 0.0
    assert h(1.0) == pytest.approx(LN2, rel=1e-15)


@pytest.mark.parametrize(
    "x, expected",
    [
        (0.5, 0.2766516498602579),           # mpmath, 50 digits
        (math.exp(-1.0), 0.19730492253850224),
    ],
)
def test_h_frozen_values(x, expected):
    assert h(x) == pytest.approx(expected, rel=1e-14)


def test_h_branches_agree_through_the_crossover():
    # The closed form takes over from the series at x = 1e-3. Summing the
    # series to machine precision in-test gives an independent reference
    # on both sides of the switch.
    for x in (2e-4, 9e-4, 1.1e-3, 2e-3, 1e-2):
        n = np.arange(1, 60)
        reference = float(np.sum(x**n / (2 * n * (2 * n - 1))))
        assert h(x) == pytest.approx(reference, rel=1e-13)


def test_h_rejects_arguments_outside_unit_interval():
    with pytest.raises(ValueError):
        h(-0.1)
    with pytest.raises(ValueError):
        h(1.0 + 1e-9)


@given(st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False))
def test_h_bounds_hold_everywhere(x):
    val = h(x)
    assert 0.0 <= val <= LN2 + 1e-15
    # x/2 <= h(x) <= x ln 2, with a little float slack at the edges.
    assert val >= 0.5 * x - 1e-15
    assert val <= x * LN2 + 1e-15


def test_h_is_monotone_on_a_grid():
    xs = np.linspace(0.0, 1.0, 257)
    vals = [h(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("terms", [1, 3, 10])
@pytest.mark.parametrize("x", [1e-4, 0.1, 0.5, 0.9])
def test_h_power_series_tail_bound_brackets_the_truth(x, terms):
    partial, tail = h_power_series(x, terms)
    assert tail >= 0.0
    gap = h(x) - partial
    assert 0.0 <= gap <= tail + 1e-16


def test_h_power_series_needs_a_term():
    with pytest.raises(ValueError):
        h_power_series(0.5, 0)


@pytest.mark.parametrize("terms", [2.5, True, 0], ids=repr)
def test_h_power_series_names_a_bad_term_count(terms):
    # 2.5 used to fail inside range() with a bare TypeError, and True was
    # taken as one term.
    with pytest.raises(ValueError) as info:
        h_power_series(0.1, terms)
    assert str(info.value) == f"terms must be an integer >= 1, got {terms!r}"


def test_h_power_series_takes_a_numpy_integer_term_count():
    # 2 * np.int8(100) + 1 would wrap around in the tail bound.
    assert h_power_series(0.5, np.int8(100)) == h_power_series(0.5, 100)


def test_series_coefficients_sum_to_ln2():
    # The coefficient sum sets h(1) = ln 2, which is what pins the
    # mutual-information plateau at one bit.
    m = np.arange(1, 200000)
    assert np.sum(1.0 / (2 * m * (2 * m - 1))) == pytest.approx(LN2, rel=1e-5)


def test_binary_entropy_from_gap_endpoints():
    assert binary_entropy_from_gap(0.0) == pytest.approx(LN2, rel=1e-15)
    assert binary_entropy_from_gap(1.0) == 0.0


def test_binary_entropy_from_gap_frozen_value():
    # mpmath, 50 digits
    assert binary_entropy_from_gap(0.6) == pytest.approx(0.5004024235381879, rel=1e-14)


def test_binary_entropy_from_gap_matches_shannon_form():
    for x in np.linspace(0.0, 1.0, 41):
        p = 0.5 * (1.0 + x)
        q = 1.0 - p
        shannon = 0.0
        for w in (p, q):
            if w > 0.0:
                shannon -= w * math.log(w)
        assert binary_entropy_from_gap(float(x)) == pytest.approx(shannon, abs=1e-14)


def test_binary_entropy_from_gap_identity_with_h():
    # H(p) = ln 2 - h((2p - 1)^2) ties the eigenvalue-gap form to the
    # series kernel.
    for x in np.linspace(0.0, 1.0, 101):
        assert binary_entropy_from_gap(float(x)) == pytest.approx(
            LN2 - h(float(x) ** 2), abs=1e-14
        )


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_binary_entropy_rejects_bad_gap(bad):
    with pytest.raises(ValueError) as info:
        binary_entropy_from_gap(bad)
    assert str(info.value) == f"gap must be in [0, 1], got {bad}"


def test_m_spectrum_entropy_reduces_to_binary():
    for x in np.linspace(0.0, 1.0, 29):
        assert m_spectrum_entropy(float(x), 2) == pytest.approx(
            binary_entropy_from_gap(float(x)), abs=1e-14
        )


@pytest.mark.parametrize("M", [2, 3, 5, 17])
def test_m_spectrum_entropy_endpoints(M):
    assert m_spectrum_entropy(0.0, M) == pytest.approx(math.log(M), rel=1e-15)
    assert m_spectrum_entropy(1.0, M) == 0.0


def test_m_spectrum_entropy_frozen_value():
    # mpmath, 50 digits
    assert m_spectrum_entropy(math.exp(-1.0), 3) == pytest.approx(
        0.9728459280404815, rel=1e-14
    )


@pytest.mark.parametrize("M, x", [(3, 0.3), (4, 0.2), (6, 0.15)])
def test_m_spectrum_entropy_matches_its_series(M, x):
    # Inside |x| < 1/(M-1) the deficit from ln M has the expansion
    # sum_{n>=2} [(-1)^n (M-1)^n + (M-1)] / (M n (n-1)) x^n.
    n = np.arange(2, 400)
    coeff = (((-1.0) ** n) * (M - 1.0) ** n + (M - 1.0)) / (M * n * (n - 1.0))
    deficit = float(np.sum(coeff * x**n))
    assert m_spectrum_entropy(x, M) == pytest.approx(math.log(M) - deficit, rel=1e-12)


def test_m_spectrum_entropy_validates_branch_count():
    with pytest.raises(ValueError):
        m_spectrum_entropy(0.5, 1)
    with pytest.raises(ValueError):
        m_spectrum_entropy(0.5, 2.5)


def _xlogx_cases():
    rng = np.random.default_rng(20260917)
    uniform = rng.random(20_000)
    uniform[::97] = 0.0
    uniform[::101] = 1.0
    spread = 10.0 ** rng.uniform(-320.0, 0.0, 5_000)  # reaches subnormals
    edges = np.array([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308,
                      1e-310, np.nan, np.inf, -1.0, 0.5])
    return [uniform, spread, edges, uniform[:12].reshape(3, 4),
            np.array(0.0), np.array(0.25), np.array(np.nan), 0.7]


@pytest.mark.parametrize("x", _xlogx_cases())
def test_xlogx_is_bitwise_scipy_xlogy(x):
    special = pytest.importorskip("scipy.special")
    got = xlogx(x)
    want = np.asarray(special.xlogy(x, x))
    assert got.shape == want.shape
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_xlogx_zero_and_nan():
    assert xlogx(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]
    assert not np.signbit(xlogx(-0.0))
    assert np.isnan(xlogx(np.nan))
    assert xlogx(np.array([])).shape == (0,)

"""Accuracy contract of a cap's reports, against 40-digit closed forms.

A disk's moments are exact integrals (sky._disk_rows), so its reports keep
their digits at every size of cap. At the double inputs theta0 and chi,
and against mpmath at 40 digits:

* the rate ratio of decoherence_rate and alpha_numeric lie within 1e-13
  relative of disk_rate's and alpha_disk's closed forms, for theta0 drawn
  on a log scale in [1e-8, pi - 1e-6] and chi in [0, pi];
* each entry of the row table U[p, q], the integral of sin^p(theta) u^q du
  over the cap or its complement, lies within 2e-13 relative of mpmath's
  integral of the same.

With the Gauss-Legendre tables these replaced, the 1e-8 rad cap's rate
ratio read 0 and alpha at pi - 1e-6 was 1.3e-3 off.
"""

import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from photon_darwinism import sky
from photon_darwinism.radiometry import Scenario, decoherence_rate
from photon_darwinism.receptivity import alpha_numeric
from photon_darwinism.sky import SkyRegion

TOL = 1e-13
# At the hemisphere the polynomial in W of U[4, 4] has terms about 300
# times its value, and the entry is 1.05e-13 off.
ROW_TOL = 2e-13
SMALLEST, LARGEST = 1e-8, math.pi - 1e-6


def _closed(theta0, chi):
    """(rate ratio, alpha) of the cap at 40 digits, from the closed forms
    in c = cos(theta0), k2 = cos^2(chi)."""
    with mp.workdps(40):
        c, k2 = mp.cos(mp.mpf(theta0)), mp.cos(mp.mpf(chi)) ** 2
        rate = (40 - c * (51 - 33 * k2) + c**3 * (11 - 33 * k2)) / 80
        alpha = (c + 1) * (-117 * c**6 + 295 * c**4 - 575 * c**2 + 685
                           + 6 * k2 * (21 * c**6 - 55 * c**4 + 135 * c**2 + 75)
                           ) / (32 * (40 + 11 * c * (1 + c) * (3 * k2 - 1)))
        return rate, alpha


def _relative(got, want):
    return float(abs(mp.mpf(got) - want) / abs(want))


# theta0 stops at pi - 1e-6: from about pi - 5.6e-7 the cap's solid angle
# is within 1e-12 of 4 pi, and alpha_numeric returns the full-sky limit 0
# by rule (receptivity._alpha_limit) instead of the ratio of its integrals,
# while the true alpha there is about 1e-13 and nonzero.
caps = st.floats(math.log(SMALLEST), math.log(LARGEST)).map(
    lambda x: min(max(math.exp(x), SMALLEST), LARGEST))


@settings(max_examples=300, deadline=None)
@given(caps, st.floats(0.0, math.pi))
@example(SMALLEST, 0.3)
@example(1e-6, 0.3)
@example(LARGEST, 1.2)
@example(math.pi / 2, 0.0)
def test_rate_ratio_and_alpha_keep_their_digits(theta0, chi):
    rate, alpha = _closed(theta0, chi)
    region = SkyRegion.disk(theta0, chi)
    scenario = Scenario(radius_m=1e-6, permittivity=4.0, dx_m=1e-6,
                        temperature_K=2.725, region=region)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no zero-solid-angle warning
        assert _relative(decoherence_rate(scenario).ratio, rate) <= TOL
    assert _relative(alpha_numeric(region), alpha) <= TOL


def _row_integral(theta0, inside, p, q):
    """int (1 - u^2)^(p/2) u^q du, p even, over the cap theta <= theta0 or
    its complement, at 80 digits, enough to keep 40 after 1 - u^2 cancels."""
    with mp.workdps(80):
        u0 = mp.cos(mp.mpf(theta0))
        lo, hi = (u0, 1) if inside else (-1, u0)
        return mp.quad(lambda u: (1 - u * u) ** (p // 2) * u**q, [lo, hi])


@pytest.mark.parametrize("inside", [True, False], ids=["cap", "complement"])
@pytest.mark.parametrize("theta0", [SMALLEST, 1e-6, 1e-3, 0.4, math.pi / 2,
                                    2.6, math.pi - 1e-3, LARGEST])
def test_row_table_entries_are_the_integrals(theta0, inside):
    rows = sky._disk_rows(theta0, inside)
    assert not rows[1::2].any()  # odd p: no full-circle phi integral
    for p in (0, 2, 4):
        for q in range(5):
            want = _row_integral(theta0, inside, p, q)
            assert _relative(rows[p, q], want) <= ROW_TOL, (p, q)


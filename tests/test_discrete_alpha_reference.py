"""The discrete receptivity against a 40-digit evaluation.

alpha = z / ln gamma, with z = -sum_{n in B} sum_{m not in B} P_nm / D_B
and gamma = (mean_{n in B} sqrt(P_nn))^2, P_nn = 1 - sum_{m != n} P_nm.
The reference below takes the same double off-diagonal entries, sums
each row exactly (math.fsum plus its rounding residual), and forms the
square roots, the mean and the logarithm in mpmath at 40 digits, so it
shares no rounding with the library. discrete_alpha must land within
1e-14 relative of it at every coupling, where the form that subtracts
from 1 loses up to 8 digits.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from photon_darwinism.discrete_oracle import (
    discrete_alpha,
    scattering_probability_grid,
)

DIGITS = 40
TOL = 1e-14  # relative
COUPLINGS = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5]
REGIONS = [(math.pi / 2.0, 0.0), (1.1, 0.7)]


def _exact_sum(values):
    """The exact sum of doubles to about 32 digits, as an mpf."""
    values = list(values)
    head = math.fsum(values)
    return mp.mpf(head) + mp.mpf(math.fsum(values + [-head]))


def reference_alpha(prob, mask):
    """alpha from the off-diagonal entries of prob at 40 digits, as an mpf;
    prob's diagonal is not read."""
    mask = np.asarray(mask, dtype=bool)
    with mp.workdps(DIGITS):
        cross, roots = [], []
        for n in np.flatnonzero(mask):
            row = prob[n].tolist()
            cross.append(_exact_sum(prob[n, ~mask].tolist()))
            leak = _exact_sum(row[:n] + row[n + 1:])
            roots.append(mp.sqrt(1 - leak))
        D_B = len(roots)
        z = -mp.fsum(cross) / D_B
        return z / (2 * mp.log(mp.fsum(roots) / D_B))


def relative_error(value, reference):
    with mp.workdps(DIGITS):
        return float(abs((mp.mpf(value) - reference) / reference))


@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("theta0,chi", REGIONS)
@pytest.mark.parametrize("n_theta,n_phi", [(8, 16), (16, 32)])
def test_alpha_matches_the_40_digit_reference(n_theta, n_phi, theta0, chi,
                                              coupling):
    grid = scattering_probability_grid(n_theta, n_phi, theta0, chi, coupling)
    prob = grid.prob
    alpha = discrete_alpha(grid)
    assert relative_error(alpha, reference_alpha(prob, grid.mask)) <= TOL
    assert alpha == discrete_alpha(prob, grid.mask)


def test_the_reference_sees_the_cancelling_form():
    # z = block_sum / D_B - 1 over the region block and ln gamma from the
    # rounded diagonal, as the receptivity was once computed: at coupling
    # 1e-9 both are differences from 1 and lose most of their digits.
    grid = scattering_probability_grid(16, 32, math.pi / 2.0, coupling=1e-9)
    prob, mask = grid.prob, grid.mask
    z = float(prob[np.ix_(mask, mask)].sum()) / grid.D_B - 1.0
    cancelled = z / math.log(float(np.sqrt(np.diag(prob)[mask]).mean() ** 2))
    assert relative_error(cancelled, reference_alpha(prob, mask)) > 1e-10

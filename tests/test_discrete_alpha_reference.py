"""The discrete receptivity against a 40-digit evaluation.

alpha = z / ln gamma, with z = -sum_{n in B} sum_{m not in B} P_nm / D_B
and gamma = (mean_{n in B} sqrt(P_nn))^2, P_nn = 1 - sum_{m != n} P_nm.
The reference below takes the same double off-diagonal entries, sums
each row exactly (math.fsum plus its rounding residual), and forms the
square roots, the mean and the logarithm in mpmath at 40 digits, so it
shares no rounding with the library. The entries come from ref_grid, the
earlier scattering_probability_grid kept verbatim, which builds the whole
D_S x D_S matrix and shares no code with the library's ring pass.
discrete_alpha must land within 1e-14 relative of the reference at every
coupling, where the form that subtracts from 1 loses up to 8 digits.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from photon_darwinism.discrete_oracle import (
    discrete_alpha,
    scattering_probability_grid,
)
from photon_darwinism.sky import FULL_SPHERE

DIGITS = 40
TOL = 1e-14  # relative
COUPLINGS = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5]
REGIONS = [(math.pi / 2.0, 0.0), (1.1, 0.7)]


def ref_grid(n_theta, n_phi, theta0, chi=0.0, coupling=1e-6):
    """(points, mask, prob) as the earlier scattering_probability_grid."""
    u = -1.0 + (np.arange(n_theta) + 0.5) * (2.0 / n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    uu = np.repeat(u, n_phi)
    pp = np.tile(phi, n_theta)
    s = np.sqrt(1.0 - uu ** 2)
    points = np.column_stack((s * np.cos(pp), s * np.sin(pp), uu))
    delta_omega = FULL_SPHERE / (n_theta * n_phi)

    cos_nm = points @ points.T
    gap = (uu[:, None] - uu[None, :]) ** 2
    prob = coupling * delta_omega * (1.0 + cos_nm ** 2) * gap
    np.fill_diagonal(prob, 0.0)
    leak = prob.sum(axis=1)
    if leak.max() >= 1.0:
        raise ValueError(
            f"coupling {coupling} leaks probability {leak.max():.3f} >= 1; "
            "reduce it to stay in the perturbative regime"
        )
    np.fill_diagonal(prob, 1.0 - leak)

    axis = np.array([math.sin(chi), 0.0, math.cos(chi)])
    mask = points @ axis >= math.cos(theta0)
    return points, mask, prob


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
    _, mask, prob = ref_grid(n_theta, n_phi, theta0, chi, coupling)
    assert relative_error(discrete_alpha(grid), reference_alpha(prob, mask)) \
        <= TOL


def test_the_reference_sees_the_cancelling_form():
    # z = block_sum / D_B - 1 over the region block and ln gamma from the
    # rounded diagonal, as the receptivity was once computed: at coupling
    # 1e-9 both are differences from 1 and lose most of their digits.
    _, mask, prob = ref_grid(16, 32, math.pi / 2.0, coupling=1e-9)
    z = float(prob[np.ix_(mask, mask)].sum()) / mask.sum() - 1.0
    cancelled = z / math.log(float(np.sqrt(np.diag(prob)[mask]).mean() ** 2))
    assert relative_error(cancelled, reference_alpha(prob, mask)) > 1e-10

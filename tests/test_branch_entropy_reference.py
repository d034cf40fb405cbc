"""The general-cat mutual information against a 40-digit diagonalization.

E(w) is the entropy of the branch matrix [sqrt(p_a p_b) Gamma_ab^(w/2)],
and the mutual information of a cat with a fragment of fraction f is
I = E(f) + E(1) - E(1 - f). The reference below forms that matrix from
the same double inputs in mpmath at 40 digits and diagonalizes it with
mp.eigsy, so it shares no arithmetic with the library: no float powers,
no LAPACK and no xlogx. mi_exact_general and both surrogates of
mi_interval_bounds must land within 1e-13 nats of it.
"""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from photon_darwinism.discrete_oracle import mi_exact_general
from photon_darwinism.superpositions import CatSpec, mi_interval_bounds

DIGITS = 40
TOL = 1e-13  # nats, absolute
CATS_PER_M = 15


def _branch_entropy(probs, gamma, w):
    """E(w) = -sum lambda ln lambda over the eigenvalues of the branch
    matrix, counting lambda <= 0 as 0; w is an mpf."""
    M = len(probs)
    amp = [mp.sqrt(mp.mpf(p)) for p in probs]
    rho = mp.matrix(M, M)
    for a in range(M):
        for b in range(M):
            rho[a, b] = amp[a] * amp[b] * mp.mpf(gamma[a][b]) ** (w / 2)
    eigs = mp.eigsy(rho, eigvals_only=True)
    return -mp.fsum(lam * mp.log(lam) for lam in eigs if lam > 0)


def reference_mi(probs, gamma, f) -> float:
    """E(f) + E(1) - E(1 - f) at 40 digits, from double probs and gamma."""
    probs = [float(p) for p in probs]
    gamma = np.asarray(gamma, dtype=float).tolist()
    with mp.workdps(DIGITS):
        f = mp.mpf(f)
        return float(_branch_entropy(probs, gamma, f)
                     + _branch_entropy(probs, gamma, mp.mpf(1))
                     - _branch_entropy(probs, gamma, 1 - f))


def _gaussian_cat(rng, M):
    """Factors exp(-k |x_a - x_b|^2) with Dirichlet weights: a Gaussian
    kernel, so every power of the factor matrix is positive semidefinite
    and the cat is realizable."""
    x = rng.normal(size=(M, 2))
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    gamma = np.exp(-rng.uniform(0.5, 8.0) * d2)
    return CatSpec(probs=rng.dirichlet(np.ones(M)), gamma=gamma)


def _uniform_factor(M, gamma):
    """The surrogate matrix: gamma off the diagonal, 1 on it."""
    gm = np.full((M, M), gamma)
    np.fill_diagonal(gm, 1.0)
    return gm


def test_reference_recovers_the_classical_plateau():
    # With every factor 0 each proper fragment holds the full record ln M,
    # the empty one nothing, and the whole environment the quantum 2 ln M.
    for M in (2, 3, 5):
        probs = np.full(M, 1.0 / M)
        gamma = np.eye(M)
        assert reference_mi(probs, gamma, 0.0) == pytest.approx(0.0, abs=1e-15)
        for f in (0.1, 0.5, 0.9):
            assert reference_mi(probs, gamma, f) == pytest.approx(
                math.log(M), abs=1e-15)
        assert reference_mi(probs, gamma, 1.0) == pytest.approx(
            2.0 * math.log(M), abs=1e-15)


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_mi_exact_general_matches_the_reference(M):
    rng = np.random.default_rng([12, M])
    worst = 0.0
    for _ in range(CATS_PER_M):
        cat = _gaussian_cat(rng, M)
        for f in (0.0, 0.5, 1.0, float(rng.uniform(0.0, 1.0))):
            gap = abs(mi_exact_general(cat, f)
                      - reference_mi(cat.probs, cat.gamma, f))
            worst = max(worst, gap)
    assert worst <= TOL


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_interval_bounds_match_the_reference_surrogates(M):
    rng = np.random.default_rng([13, M])
    worst = 0.0
    off = ~np.eye(M, dtype=bool)
    for _ in range(CATS_PER_M):
        cat = _gaussian_cat(rng, M)
        assert not np.allclose(cat.probs, 1.0 / M, atol=1e-12)
        f = float(rng.uniform(0.0, 1.0))
        with warnings.catch_warnings():
            # Factors above e^-5 only void the bracket, not the values.
            warnings.simplefilter("ignore", UserWarning)
            weak, strong = mi_interval_bounds(cat.gamma, cat.probs, f)
        for got, factor in ((weak, cat.gamma[off].max()),
                            (strong, cat.gamma[off].min())):
            want = reference_mi(cat.probs, _uniform_factor(M, factor), f)
            worst = max(worst, abs(got - want))
    assert worst <= TOL

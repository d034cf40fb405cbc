"""Tests for unbalanced and many-way superposition information curves."""

import math
import warnings

import numpy as np
import pytest

from photon_darwinism.discrete_oracle import (
    discrete_gamma,
    fragment_entropy_exact,
    mi_exact_general,
)
from photon_darwinism.entropy_kernels import (
    LN2,
    binary_entropy_from_gap,
    h,
    m_spectrum_entropy,
)
from photon_darwinism.information import mutual_information
from photon_darwinism.superpositions import (
    BOUND_VALIDITY_GAMMA,
    CatSpec,
    max_entropy,
    mi_interval_bounds,
    mi_mway,
    mi_mway_limit,
    mi_unbalanced,
    mi_unbalanced_limit,
)

GAMMA = math.exp(-10.0)


def _probs_from_mu(mu):
    root = math.sqrt(mu)
    return (0.5 * (1.0 + root), 0.5 * (1.0 - root))


class TestMaxEntropy:
    def test_balanced_pair_is_one_bit(self):
        assert max_entropy((0.5, 0.5)) == pytest.approx(LN2, rel=1e-15)

    def test_uniform_many_way(self):
        for M in (3, 7, 12):
            assert max_entropy([1.0 / M] * M) == pytest.approx(math.log(M), rel=1e-13)

    def test_deterministic_branch_carries_nothing(self):
        assert max_entropy((1.0, 0.0)) == 0.0

    def test_frozen_value(self):
        # mu = 1/2, mpmath cross-check
        assert max_entropy(_probs_from_mu(0.5)) == pytest.approx(
            0.4164955306997, rel=1e-12
        )

    def test_imbalance_identity(self):
        # Shannon entropy of the pair equals ln 2 - h(mu)
        for mu in np.linspace(0.0, 1.0, 21):
            got = max_entropy(_probs_from_mu(float(mu)))
            assert got == pytest.approx(LN2 - h(float(mu)), abs=1e-13)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            max_entropy((0.7, 0.7))
        with pytest.raises(ValueError):
            max_entropy((1.2, -0.2))


class TestCatSpec:
    def test_mu_roundtrip(self):
        spec = CatSpec(probs=_probs_from_mu(0.5))
        assert spec.M == 2
        assert spec.mu == pytest.approx(0.5, rel=1e-12)

    def test_mu_defined_only_for_pairs(self):
        spec = CatSpec(probs=(0.5, 0.3, 0.2))
        with pytest.raises(ValueError):
            spec.mu

    def test_factor_matrix_validation(self):
        probs = (0.5, 0.3, 0.2)
        good = np.full((3, 3), 0.1)
        np.fill_diagonal(good, 1.0)
        CatSpec(probs=probs, gamma=good)
        bad_diag = good.copy()
        bad_diag[1, 1] = 0.9
        with pytest.raises(ValueError):
            CatSpec(probs=probs, gamma=bad_diag)
        asym = good.copy()
        asym[0, 1] = 0.2
        with pytest.raises(ValueError):
            CatSpec(probs=probs, gamma=asym)
        with pytest.raises(ValueError):
            CatSpec(probs=probs, gamma=np.full((2, 2), 1.0))


class TestUnbalanced:
    def test_balanced_limit_recovers_pair_curve(self):
        for gamma in (math.exp(-1.0), GAMMA):
            for f in np.linspace(0.0, 1.0, 11):
                assert mi_unbalanced(gamma, float(f), 0.0) == pytest.approx(
                    mutual_information(gamma, 1.0, float(f)), abs=1e-12
                )

    def test_fully_tipped_cat_carries_nothing(self):
        assert mi_unbalanced(GAMMA, 0.3, 1.0) == 0.0

    def test_frozen_value(self):
        # mpmath, 50 digits
        assert mi_unbalanced(GAMMA, 0.2, 0.5) == pytest.approx(
            0.3735027391987202, rel=1e-12
        )

    def test_plateau_saturates_branch_entropy(self):
        # gamma^f has to be negligible too, so go very deep
        mu = 0.3
        assert mi_unbalanced(1e-300, 0.2, mu) == pytest.approx(
            max_entropy(_probs_from_mu(mu)), rel=1e-12
        )

    def test_eigenvalue_oracle(self):
        # Reassemble from the two-level spectra directly: the spectrum at
        # effective fragment weight w is (1 +- sqrt(mu + (1-mu) gamma^w))/2.
        def pair_entropy(gamma, w, mu):
            root = math.sqrt(mu + (1.0 - mu) * gamma**w)
            out = 0.0
            for lam in (0.5 * (1.0 + root), 0.5 * (1.0 - root)):
                if lam > 0.0:
                    out -= lam * math.log(lam)
            return out

        for gamma, f, mu in ((0.2, 0.3, 0.1), (GAMMA, 0.2, 0.5), (0.9, 0.45, 0.8)):
            expected = (pair_entropy(gamma, f, mu) + pair_entropy(gamma, 1.0, mu)
                        - pair_entropy(gamma, 1.0 - f, mu))
            assert mi_unbalanced(gamma, f, mu) == pytest.approx(expected, abs=1e-12)

    def test_renormalized_curve_approaches_the_tipped_limit(self):
        limit = mi_unbalanced_limit(GAMMA, 0.2)
        gaps = []
        for mu in (0.9, 0.99, 0.9999, 1.0 - 1e-7):
            ratio = mi_unbalanced(GAMMA, 0.2, mu) / (LN2 - h(mu))
            gaps.append(abs(ratio - limit))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_limit_formula(self):
        # frozen value plus the arithmetic identity it came from
        assert mi_unbalanced_limit(GAMMA, 0.2) == pytest.approx(
            0.8649547794615272, rel=1e-12
        )
        for gamma, f in ((0.3, 0.2), (GAMMA, 0.45)):
            expected = 1.0 + gamma ** (1.0 - f) - gamma**f - gamma
            assert mi_unbalanced_limit(gamma, f) == pytest.approx(expected, rel=1e-14)
        assert mi_unbalanced_limit(0.0, 0.2) == pytest.approx(1.0, rel=1e-15)
        assert mi_unbalanced_limit(1.0, 0.2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mi_unbalanced(1.5, 0.2, 0.5)
        with pytest.raises(ValueError):
            mi_unbalanced(0.5, 0.2, -0.1)


class TestMWay:
    def test_two_way_reduction(self):
        for gamma in (math.exp(-0.5), GAMMA, 0.99):
            for f in np.linspace(0.0, 1.0, 9):
                assert mi_mway(gamma, float(f), 2) == pytest.approx(
                    mutual_information(gamma, 1.0, float(f)), abs=1e-12
                )

    def test_frozen_three_way_value(self):
        # mpmath, 50 digits
        assert mi_mway(GAMMA, 0.2, 3) == pytest.approx(0.9731340988755985, rel=1e-12)

    def test_plateau_reaches_log_m(self):
        for M in (3, 6):
            assert mi_mway(1e-300, 0.2, M) == pytest.approx(math.log(M), rel=1e-10)

    def test_no_decoherence_no_information(self):
        assert mi_mway(1.0, 0.3, 5) == pytest.approx(0.0, abs=1e-14)

    def test_matrix_eigenvalue_oracle(self):
        # Rebuild each marginal spectrum from the M x M overlap matrix
        # with numpy instead of the closed spectrum.
        def matrix_entropy(gamma, w, M):
            rho = np.full((M, M), gamma ** (0.5 * w)) / M
            np.fill_diagonal(rho, 1.0 / M)
            lam = np.linalg.eigvalsh(rho)
            lam = lam[lam > 1e-300]
            return float(-np.sum(lam * np.log(lam)))

        for gamma, f, M in ((0.2, 0.3, 3), (GAMMA, 0.2, 5), (0.9, 0.45, 4)):
            expected = (matrix_entropy(gamma, f, M) + matrix_entropy(gamma, 1.0, M)
                        - matrix_entropy(gamma, 1.0 - f, M))
            assert mi_mway(gamma, f, M) == pytest.approx(expected, abs=1e-11)

    def test_renormalized_curve_decreases_toward_the_limit(self):
        limit = mi_mway_limit(GAMMA, 0.2)
        ratios = [mi_mway(GAMMA, 0.2, M) / math.log(M) for M in (2, 3, 5, 10, 100)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r >= limit - 1e-12 for r in ratios)

    def test_limit_formula(self):
        assert mi_mway_limit(GAMMA, 0.2) == pytest.approx(0.6436982507182064,
                                                          rel=1e-12)
        for gamma, f in ((0.3, 0.2), (GAMMA, 0.45)):
            expected = (1.0 + gamma ** (0.5 * (1.0 - f)) - gamma ** (0.5 * f)
                        - gamma**0.5)
            assert mi_mway_limit(gamma, f) == pytest.approx(expected, rel=1e-14)
        assert mi_mway_limit(0.0, 0.2) == pytest.approx(1.0, rel=1e-15)
        assert mi_mway_limit(1.0, 0.2) == 0.0

    def test_branch_count_validation(self):
        with pytest.raises(ValueError):
            mi_mway(0.5, 0.2, 1)
        with pytest.raises(ValueError):
            mi_mway(0.5, 0.2, 2.5)


class TestIntervalBounds:
    @staticmethod
    def _factor_matrix(values):
        m = np.asarray(values, dtype=float)
        np.fill_diagonal(m, 1.0)
        return m

    def test_uniform_factors_pinch_the_interval_shut(self):
        gamma = math.exp(-7.0)
        gm = self._factor_matrix(np.full((3, 3), gamma))
        probs = np.array([0.5, 0.3, 0.2])
        lo, hi = mi_interval_bounds(gm, probs, 0.2)
        assert lo == pytest.approx(hi, rel=1e-13)
        from photon_darwinism.discrete_oracle import mi_exact_general

        exact = mi_exact_general(CatSpec(probs=tuple(probs), gamma=gm), 0.2)
        assert lo == pytest.approx(exact, abs=1e-12)

    def test_ordering_for_mixed_factors(self):
        gm = self._factor_matrix([[1.0, math.exp(-6.0), math.exp(-7.5)],
                                  [math.exp(-6.0), 1.0, math.exp(-5.5)],
                                  [math.exp(-7.5), math.exp(-5.5), 1.0]])
        probs = np.array([0.4, 0.35, 0.25])
        for f in (0.1, 0.25, 0.45):
            lo, hi = mi_interval_bounds(gm, probs, f)
            assert lo < hi

    def test_exact_value_lands_inside(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            logs = rng.uniform(-8.0, -5.0, size=3)
            gm = self._factor_matrix(np.ones((3, 3)))
            gm[0, 1] = gm[1, 0] = math.exp(logs[0])
            gm[0, 2] = gm[2, 0] = math.exp(logs[1])
            gm[1, 2] = gm[2, 1] = math.exp(logs[2])
            probs = rng.dirichlet(np.ones(3))
            f = rng.uniform(0.05, 0.45)
            lo, hi = mi_interval_bounds(gm, probs, f)
            from photon_darwinism.discrete_oracle import mi_exact_general

            exact = mi_exact_general(CatSpec(probs=tuple(probs), gamma=gm), f)
            assert lo - 1e-12 <= exact <= hi + 1e-12

    def test_warns_when_overlaps_are_too_strong(self):
        gm = self._factor_matrix(np.full((3, 3), 0.5))
        with pytest.warns(UserWarning):
            mi_interval_bounds(gm, np.array([0.4, 0.3, 0.3]), 0.2)
        assert BOUND_VALIDITY_GAMMA == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_matrix_validation(self):
        probs = np.array([0.6, 0.4])
        with pytest.raises(ValueError, match="factor matrix must be square"):
            mi_interval_bounds(np.ones((2, 3)), probs, 0.2)
        asym = np.array([[1.0, 0.1], [0.2, 1.0]])
        with pytest.raises(ValueError, match="factor matrix must be symmetric"):
            mi_interval_bounds(asym, probs, 0.2)
        # The weights and the matrix are checked by CatSpec, in that order.
        with pytest.raises(ValueError,
                           match="factor matrix is 2x2 but there are 3 branches"):
            mi_interval_bounds(np.eye(2), np.full(3, 1.0 / 3.0), 0.2)
        with pytest.raises(ValueError, match="branch probabilities must be"):
            mi_interval_bounds(asym, [0.7, 0.7], 0.2)


NAN = math.nan
_WEAK_PAIR = [[1.0, 1e-3], [1e-3, 1.0]]


@pytest.mark.parametrize("call, message", [
    (lambda: max_entropy([NAN, NAN]), "branch probabilities must be nonnegative"),
    (lambda: CatSpec(probs=[NAN, 0.5]), "branch probabilities must be nonnegative"),
    (lambda: mi_interval_bounds(_WEAK_PAIR, [NAN, NAN], 0.2),
     "branch probabilities must be nonnegative"),
    (lambda: fragment_entropy_exact([NAN, 1.0]),
     "spectrum values must be nonnegative, got nan"),
    (lambda: fragment_entropy_exact([0.5, 0.5], [NAN, 1.0]),
     "spectrum sums to nan, not 1"),
    (lambda: discrete_gamma([NAN, 0.5]), "overlap magnitudes cannot exceed 1, got nan"),
    (lambda: mi_interval_bounds(_WEAK_PAIR, [0.5, 0.5], NAN),
     r"^f must be in \[0, 1\], got nan$"),
    (lambda: mi_exact_general(CatSpec([0.5, 0.5], _WEAK_PAIR), NAN),
     r"^f must be in \[0, 1\], got nan$"),
    (lambda: binary_entropy_from_gap(NAN), r"^gap must be in \[0, 1\], got nan$"),
], ids=["max-entropy", "cat-spec", "interval-bounds", "spectrum-value",
        "spectrum-multiplicity", "discrete-gamma", "interval-bounds-f",
        "exact-general-f", "binary-gap"])
def test_validators_reject_nan_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()

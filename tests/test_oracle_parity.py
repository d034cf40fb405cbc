"""The oracle's array code against the code it replaced.

The reference functions are the earlier implementations, kept verbatim
in operation order: the probability grid built from three full D_S x D_S
temporaries (ref_grid, shared with test_discrete_alpha_reference), the
fragment spectrum enumerated one multiset at a
time with Python-integer factorials, the general-cat mutual information
with one diagonalization per reduced state, the factor-matrix check
through np.allclose, the battery's interval-bound trials as one loop
iteration per trial, the fragment entropy with one logarithm per
eigenvalue, and the halving ratios with one enumeration per level. Every
current result must equal them bit for bit, and every rejection must
raise the same exception with the same message. Stacked general-cat
calls must equal a loop of single-matrix calls the same way, and every
row of a stacked fragment spectrum the reference and a 1-d call.

Two exceptions. The grid now keeps only each bin's leak and its region
rows' sums over the complement, summed in closed form from six moments
of each theta ring's bins; they are held to within 4 ulp of the exact
(math.fsum) off-diagonal row sums of the reference matrix. The ring pass
that summed one n_phi x D_S block of entries per ring before them
(ref_ring_pass) is kept as well, and held to the reference matrix's row
sums bit for bit, except at a few small shapes where a ring product
moves a cosine by 1 ulp, and there to 4 ulp. And the discrete
receptivity no longer subtracts from 1, so it is held to the 40-digit
reference of test_discrete_alpha_reference instead of the earlier sum.
"""

import math
import warnings
from itertools import combinations_with_replacement

import numpy as np
import pytest

from photon_darwinism.discrete_oracle import (
    analytic_entropy_change,
    discrete_alpha,
    entropy_error_halving,
    fragment_eigenvalues,
    fragment_entropy_change_exact,
    fragment_entropy_exact,
    mi_exact_general,
    oracle_battery,
    scattering_probability_grid,
)
from photon_darwinism.entropy_kernels import xlogx
from photon_darwinism.sky import FULL_SPHERE
from photon_darwinism.superpositions import (
    CatSpec,
    _check_factor_matrix,
    mi_interval_bounds,
)
from test_discrete_alpha_reference import (
    ref_grid,
    reference_alpha,
    relative_error,
)

# ---------------------------------------------------------------------------
# reference implementations


def ref_ring_pass(points, mask, n_phi, coupling):
    """(leak, cross) as the earlier DirectionalGrid built them, one
    n_phi x D_S block of P_nm per theta ring; cross is NaN on the rings
    that hold no mask row."""
    D_S = points.shape[0]
    u = points[:, 2]
    delta_omega = FULL_SPHERE / D_S
    outside = (~mask).astype(float)
    leak, cross = np.empty(D_S), np.full(D_S, np.nan)
    block = np.empty((n_phi, D_S))
    for start in range(0, D_S, n_phi):
        rows = slice(start, start + n_phi)
        # cos_nm -> coupling delta_omega (1 + cos_nm^2) (u_n - u_m)^2;
        # the ring's own columns, the diagonal among them, are 0.
        np.matmul(points[rows], points.T, out=block)
        np.square(block, out=block)
        block += 1.0
        block *= coupling * delta_omega
        block *= (u[start] - u) ** 2
        leak[rows] = block.sum(axis=1)
        if mask[rows].any():
            cross[rows] = np.multiply(block, outside, out=block).sum(axis=1)
    return leak, cross


def ref_fragment_eigenvalues(b, fN):
    b = np.asarray(b, dtype=float)
    D = b.size
    total = D ** fN
    roots = np.sqrt(1.0 + b)
    norm = 2.0 * float(total)
    values = []
    mults = []
    for combo in combinations_with_replacement(range(D), fN):
        counts = np.bincount(combo, minlength=D)
        mult = math.factorial(fN)
        g = 1.0
        for j in np.nonzero(counts)[0]:
            c = int(counts[j])
            mult //= math.factorial(c)
            g *= roots[j] ** c
        values.append((1.0 + g) / norm)
        values.append((1.0 - g) / norm)
        mults.append(mult)
        mults.append(mult)
    return np.array(values), np.array(mults, dtype=np.int64)


def ref_entropy_error_halving(base_b, D_B, fN, levels=3):
    if base_b >= 0.0:
        raise ValueError("base_b must be negative")
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")
    errors = []
    for level in range(levels):
        b = np.full(D_B, base_b / 2 ** level)
        gap = abs(fragment_entropy_change_exact(b, fN)
                  - analytic_entropy_change(b, fN))
        errors.append(gap)
    return [errors[i] / errors[i + 1] for i in range(levels - 1)]


def ref_mi_exact_general(cat, f):
    amp = np.sqrt(cat.probs)

    def E(w):
        rho = np.outer(amp, amp) * cat.gamma ** (0.5 * w)
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-9:
            raise ArithmeticError(
                f"branch matrix at w = {w} is not positive semidefinite "
                f"(min eigenvalue {eigs.min():.3e}); the factor matrix is "
                "not realizable by photon overlaps"
            )
        eigs = np.clip(eigs, 0.0, None)
        return float(-xlogx(eigs).sum())

    return E(f) + E(1.0) - E(1.0 - f)


def ref_check_factor_matrix(gamma):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError("factor matrix must be square")
    if not np.allclose(gamma, gamma.T, atol=1e-12):
        raise ValueError("factor matrix must be symmetric")
    if np.any(np.abs(np.diag(gamma) - 1.0) > 1e-12):
        raise ValueError("factor matrix must have a unit diagonal")
    if np.any(gamma < 0.0) or np.any(gamma > 1.0 + 1e-12):
        raise ValueError("pairwise factors must lie in [0, 1]")
    return gamma


def ref_interval_trials(rng):
    """(violations, worst_margin) of the battery's 100 interval-bound
    trials, one loop iteration per trial."""
    trials = 100
    violations = 0
    worst_margin = math.inf
    for _ in range(trials):
        log_g = rng.uniform(-8.0, -5.0, size=3)
        gm = np.ones((3, 3))
        gm[0, 1] = gm[1, 0] = math.exp(log_g[0])
        gm[0, 2] = gm[2, 0] = math.exp(log_g[1])
        gm[1, 2] = gm[2, 1] = math.exp(log_g[2])
        f_trial = rng.uniform(0.01, 0.49)
        probs = np.full(3, 1.0 / 3.0)
        low, high = mi_interval_bounds(gm, probs, f_trial)
        exact_mi = mi_exact_general(CatSpec(probs=probs, gamma=gm), f_trial)
        margin = min(exact_mi - low, high - exact_mi)
        worst_margin = min(worst_margin, margin)
        if not (low - 1e-12 <= exact_mi <= high + 1e-12):
            violations += 1
    return violations, float(worst_margin)


def ref_fragment_entropy_exact(values, multiplicities=None):
    values = np.asarray(values, dtype=float)
    if multiplicities is None:
        mult = np.ones_like(values)
    else:
        mult = np.asarray(multiplicities, dtype=float)
    v = np.clip(values, 0.0, None)
    return float(-(mult * xlogx(v)).sum())


def _outcome(fn, *args, **kwargs):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, ArithmeticError, OverflowError) as exc:
        return type(exc), str(exc)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _ulps(a, b):
    """The largest distance in ulps between two arrays of nonnegative
    doubles of one shape."""
    assert a.shape == b.shape and (a >= 0.0).all() and (b >= 0.0).all()
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max(initial=0))


# ---------------------------------------------------------------------------
# probability grid and discrete alpha

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 5), (4, 4), (5, 3), (7, 11), (8, 16),
          (9, 4), (11, 7), (13, 26), (16, 32), (17, 9), (32, 64)]
ANGLES = [(0.3, 0.0), (math.pi / 2.0, 0.0), (2.0, 0.7), (math.pi, 0.0),
          (1.1, math.pi)]


# The shapes where the ring pass's product moves some cosine by 1 ulp
# against the symmetric product; everywhere else, the battery's 8 x 16,
# 16 x 32 and 32 x 64 among them, its entries keep their bits.
ULP_SHAPES = {(3, 5), (5, 3), (7, 11), (9, 4), (11, 7), (6, 10), (9, 14)}


def _check_grid(grid, n_theta, n_phi, points, mask, prob):
    assert _same_bits(grid.points, points)
    assert _same_bits(grid.mask, mask)
    off = prob.copy()
    np.fill_diagonal(off, 0.0)
    leak = off.sum(axis=1)
    cross = (off * ~mask).sum(axis=1)[mask]
    ring_leak, ring_cross = ref_ring_pass(points, mask, n_phi, grid.coupling)
    if (n_theta, n_phi) in ULP_SHAPES:
        assert _ulps(ring_leak, leak) <= 4
        assert _ulps(ring_cross[mask], cross) <= 4
    else:
        assert _same_bits(ring_leak, leak)
        assert _same_bits(ring_cross[mask], cross)
    # The moment sums against the exact sums of the same entries.
    assert _ulps(grid.leak, np.array([math.fsum(r) for r in off])) <= 4
    assert _ulps(grid.cross[mask],
                 np.array([math.fsum(r[~mask]) for r in off[mask]])) <= 4
    assert _same_bits(np.isnan(grid.cross), np.isnan(ring_cross))
    if mask.any():
        alpha = discrete_alpha(grid)
        if mask.all():
            assert alpha == 0.0
        else:
            assert relative_error(alpha, reference_alpha(prob, mask)) \
                <= 1e-14


@pytest.mark.parametrize("n_theta,n_phi", SHAPES)
def test_grid_and_alpha_match_the_reference_over_shapes(n_theta, n_phi):
    grid = scattering_probability_grid(n_theta, n_phi, math.pi / 2.0)
    _check_grid(grid, n_theta, n_phi,
                *ref_grid(n_theta, n_phi, math.pi / 2.0))


@pytest.mark.parametrize("theta0,chi", ANGLES)
@pytest.mark.parametrize("coupling", [1e-7, 1e-6, 3e-4])
@pytest.mark.parametrize("n_theta,n_phi", [(6, 10), (9, 14)])
def test_grid_and_alpha_match_the_reference_over_regions(n_theta, n_phi,
                                                         theta0, chi,
                                                         coupling):
    grid = scattering_probability_grid(n_theta, n_phi, theta0, chi, coupling)
    _check_grid(grid, n_theta, n_phi,
                *ref_grid(n_theta, n_phi, theta0, chi, coupling))


# D_S = 32, 288, 1152 (not multiples of 512) and 1024, 2048 (multiples).
@pytest.mark.parametrize("n_theta,n_phi", [(4, 8), (12, 24), (24, 48),
                                           (16, 64), (32, 64)])
def test_grid_matches_the_reference_off_axis(n_theta, n_phi):
    grid = scattering_probability_grid(n_theta, n_phi, math.pi / 2.0, 0.7)
    _check_grid(grid, n_theta, n_phi,
                *ref_grid(n_theta, n_phi, math.pi / 2.0, 0.7))


def test_grid_leak_error_matches_the_reference():
    new = _outcome(scattering_probability_grid, 8, 16, 1.0, coupling=2.0)
    assert new[0] is ValueError
    assert new == _outcome(ref_grid, 8, 16, 1.0, coupling=2.0)


# ---------------------------------------------------------------------------
# fragment spectrum


@pytest.mark.parametrize("D,fN", [(1, 1), (3, 2), (3, 6), (5, 3), (8, 6),
                                  (10, 2), (2, 23)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fragment_spectrum_matches_the_reference(D, fN, seed):
    b = np.random.default_rng([seed, D, fN]).uniform(-0.9, 0.5, size=D)
    values, mults = fragment_eigenvalues(b, fN)
    ref_values, ref_mults = ref_fragment_eigenvalues(b, fN)
    assert _same_bits(values, ref_values)
    assert _same_bits(mults, ref_mults)


@pytest.mark.parametrize("D,fN", [(2, 66), (2, 67), (3, 43), (3, 44)])
def test_largest_int64_multiplicities_match_the_reference(D, fN):
    # The largest multiplicities: C(66, 33) = 7.2e18 and 43!/(15! 14! 14!)
    # = 6.1e18 fit in int64; C(67, 33) = 1.4e19 does not, nor does
    # 44!/(15! 15! 14!) = 1.8e19, although each of its binomials does.
    b = np.linspace(-0.01, -0.03, D)
    new = _outcome(fragment_eigenvalues, b, fN, cap=D ** fN)
    ref = _outcome(ref_fragment_eigenvalues, b, fN)
    assert new[0] == ref[0]
    if ref[0] == "ok":
        assert _same_bits(new[1][0], ref[1][0])
        assert _same_bits(new[1][1], ref[1][1])
    else:
        assert ref[0] is OverflowError


@pytest.mark.parametrize("D,fN", [(1, 1), (2, 23), (2, 66), (1, 200), (3, 6),
                                  (8, 6), (300, 2)])
def test_every_row_of_a_stack_matches_the_reference(D, fN):
    b = np.random.default_rng([D, fN]).uniform(-0.9, 0.5, size=(3, D))
    values, mults = fragment_eigenvalues(b, fN, cap=D ** fN)
    for row, spectrum in zip(b, values):
        ref_values, ref_mults = ref_fragment_eigenvalues(row, fN)
        assert _same_bits(spectrum, ref_values)
        assert _same_bits(mults, ref_mults)
        one_values, one_mults = fragment_eigenvalues(row, fN, cap=D ** fN)
        assert _same_bits(spectrum, one_values)
        assert _same_bits(mults, one_mults)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.5])
def test_a_bad_row_of_a_stack_is_named_by_its_value(bad):
    b = np.full((3, 4), -0.01)
    b[1, 2] = bad
    new = _outcome(fragment_eigenvalues, b, 2)
    assert new[0] is ValueError and new[1].endswith(f"got {bad}")
    assert new == _outcome(fragment_eigenvalues, b[1], 2)


@pytest.mark.parametrize("D,fN", [(2, 67), (3, 44)])
def test_a_stack_past_int64_raises_as_one_row_does(D, fN):
    b = np.linspace(-0.01, -0.03, D)
    stack = _outcome(fragment_eigenvalues, np.stack((b, b)), fN, cap=D ** fN)
    assert stack[0] is OverflowError
    assert stack == _outcome(fragment_eigenvalues, b, fN, cap=D ** fN)


@pytest.mark.parametrize("D_B,fN,levels", [(8, 6, 3), (4, 3, 2), (4, 2, 4)])
@pytest.mark.parametrize("base_b", [-0.002, -0.3])
def test_halving_ratios_match_the_per_level_loop(D_B, fN, levels, base_b):
    new = entropy_error_halving(base_b, D_B, fN, levels)
    ref = ref_entropy_error_halving(base_b, D_B, fN, levels)
    assert [type(r) for r in new] == [float] * (levels - 1)
    assert _same_bits(new, ref)


# ---------------------------------------------------------------------------
# general-cat mutual information


def _gaussian_cat(rng, M):
    """Factors exp(-k |x_a - x_b|^2): a Gaussian kernel, so every power is
    positive semidefinite and the cat is realizable."""
    x = rng.normal(size=(M, 2))
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    gamma = np.exp(-rng.uniform(0.5, 8.0) * d2)
    return CatSpec(probs=rng.dirichlet(np.ones(M)), gamma=gamma)


def _random_cat(rng, M):
    """Uniform random symmetric factors: often not realizable."""
    gamma = rng.uniform(0.0, 1.0, size=(M, M))
    gamma = np.triu(gamma, 1)
    gamma = gamma + gamma.T + np.eye(M)
    return CatSpec(probs=rng.dirichlet(np.ones(M)), gamma=gamma)


@pytest.mark.parametrize("M", [2, 3, 4, 5])
@pytest.mark.parametrize("make", [_gaussian_cat, _random_cat])
def test_general_mi_matches_the_reference(M, make):
    rng = np.random.default_rng([M, len(make.__name__)])
    outcomes = set()
    for _ in range(40):
        cat = make(rng, M)
        for f in (0.0, rng.uniform(0.0, 1.0), 0.5, 1.0):
            new = _outcome(mi_exact_general, cat, f)
            ref = _outcome(ref_mi_exact_general, cat, f)
            assert new[0] == ref[0]
            if new[0] == "ok":
                assert _same_bits(new[1], ref[1])
            else:
                assert new[1] == ref[1]
            outcomes.add(new[0])
    if make is _gaussian_cat:
        assert outcomes == {"ok"}


def test_psd_error_names_the_first_failing_w():
    tiny = math.exp(-8.0)
    gm = np.array([[1.0, 0.99, tiny],
                   [0.99, 1.0, 0.99],
                   [tiny, 0.99, 1.0]])
    cat = CatSpec(probs=(1 / 3, 1 / 3, 1 / 3), gamma=gm)
    for f in (0.0, 0.3, 0.9, 1.0):
        new = _outcome(mi_exact_general, cat, f)
        assert new[0] is ArithmeticError
        assert new == _outcome(ref_mi_exact_general, cat, f)


# ---------------------------------------------------------------------------
# factor-matrix check


def _sym(off, diag=1.0):
    gm = np.full((3, 3), 0.01)
    np.fill_diagonal(gm, diag)
    gm[0, 1] = gm[1, 0] = off
    return gm


def _asym(upper, lower):
    gm = _sym(0.01)
    gm[0, 1], gm[1, 0] = upper, lower
    return gm


FACTOR_MATRICES = {
    "valid": _sym(0.3),
    "zero_factor": _sym(0.0),
    "within_atol": _asym(0.3, 0.3 + 5e-13),
    "within_rtol": _asym(0.3, 0.3 + 2e-6),
    "beyond_rtol": _asym(0.3, 0.3 + 1e-4),
    "asymmetric": _asym(0.2, 0.4),
    "nan_pair": _sym(math.nan),
    "nan_one_side": _asym(math.nan, 0.2),
    "nan_diagonal": _sym(0.2, diag=math.nan),
    "inf_pair": _sym(math.inf),
    "minus_inf_pair": _sym(-math.inf),
    "inf_one_side": _asym(math.inf, 0.2),
    "opposite_infs": _asym(math.inf, -math.inf),
    "inf_diagonal": _sym(0.2, diag=math.inf),
    "off_diagonal_diag": _sym(0.2, diag=0.9),
    "negative_factor": _sym(-0.1),
    "factor_above_one": _sym(1.5),
    "factor_at_tolerance": _sym(1.0 + 5e-13),
    "not_square": np.ones((2, 3)),
    "one_dimensional": np.ones(3),
    "empty": np.ones((0, 0)),
}


@pytest.mark.parametrize("name", sorted(FACTOR_MATRICES))
def test_factor_matrix_check_matches_the_reference(name):
    gm = FACTOR_MATRICES[name]
    with np.errstate(all="raise"):
        new = _outcome(_check_factor_matrix, gm.copy())
    ref = _outcome(ref_check_factor_matrix, gm.copy())
    assert new[0] == ref[0]
    if new[0] == "ok":
        assert _same_bits(new[1], ref[1])
    else:
        assert new[1] == ref[1]


# ---------------------------------------------------------------------------
# stacked general cats and the battery's interval-bound trials


def _loop_outcome(fn, calls):
    """The outcome of the first failing call, or ("ok", list of results)."""
    results = []
    for args in calls:
        out = _outcome(fn, *args)
        if out[0] != "ok":
            return out
        results.append(out[1])
    return "ok", results


def _bounds(gamma, probs, f):
    with warnings.catch_warnings():
        # Gaussian cats often have a weakest factor above e^-5.
        warnings.simplefilter("ignore", UserWarning)
        return mi_interval_bounds(gamma, probs, f)


@pytest.mark.parametrize("seed", range(10))
def test_battery_interval_trials_match_the_per_trial_loop(seed):
    rng = np.random.default_rng(seed)
    rng.uniform(0.001, 0.05, size=5)  # the battery's spectrum draw
    violations, worst_margin = ref_interval_trials(rng)
    entry = oracle_battery(seed)["checks"][-1]
    assert entry["name"] == "interval_bound_trials"
    assert entry["trials"] == 100
    assert type(entry["violations"]) is int
    assert entry["violations"] == violations
    assert type(entry["worst_margin"]) is float
    assert _same_bits(entry["worst_margin"], worst_margin)


@pytest.mark.parametrize("seed", [0, 1, 7, 20260917])
def test_battery_trial_draws_match_per_trial_uniform_calls(seed):
    # The battery draws its trials as one block of doubles, each row three
    # log factors and then f, scaled as Generator.uniform scales a draw.
    loop = np.random.default_rng(seed)
    draws = [(loop.uniform(-8.0, -5.0, size=3), loop.uniform(0.01, 0.49))
             for _ in range(100)]
    block = np.random.default_rng(seed)
    u = block.random((100, 4))
    assert _same_bits(np.array([log_g for log_g, _ in draws]),
                      -8.0 + 3.0 * u[:, :3])
    assert _same_bits(np.array([f for _, f in draws]),
                      0.01 + (0.49 - 0.01) * u[:, 3])
    assert block.random() == loop.random()


@pytest.mark.parametrize("M", [2, 3, 4, 5])
@pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
@pytest.mark.parametrize("f_kind", ["scalar", "per_matrix", "per_column"])
def test_stacked_cats_match_single_matrix_calls(M, weights, f_kind):
    rng = np.random.default_rng([M, len(weights), len(f_kind)])
    probs = (np.full(M, 1.0 / M) if weights == "uniform"
             else rng.dirichlet(np.ones(M)))
    gms = np.stack([_gaussian_cat(rng, M).gamma
                    for _ in range(24)]).reshape(4, 6, M, M)
    f = {"scalar": 0.3,
         "per_matrix": rng.uniform(0.0, 1.0, size=(4, 6)),
         "per_column": rng.uniform(0.0, 1.0, size=6)}[f_kind]
    fs = np.broadcast_to(f, (4, 6))
    exact = mi_exact_general(CatSpec(probs=probs, gamma=gms), f)
    weak, strong = _bounds(gms, probs, f)
    for i, j in np.ndindex(4, 6):
        cat = CatSpec(probs=probs, gamma=gms[i, j])
        one = mi_exact_general(cat, float(fs[i, j]))
        one_weak, one_strong = _bounds(gms[i, j], probs, float(fs[i, j]))
        assert type(one) is type(one_weak) is type(one_strong) is float
        assert _same_bits(exact[i, j], one)
        assert _same_bits(weak[i, j], one_weak)
        assert _same_bits(strong[i, j], one_strong)


@pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
def test_one_matrix_with_an_array_f_matches_single_calls(weights):
    rng = np.random.default_rng(len(weights))
    cat = _gaussian_cat(rng, 4)
    probs = np.full(4, 0.25) if weights == "uniform" else cat.probs
    cat = CatSpec(probs=probs, gamma=cat.gamma)
    fs = rng.uniform(0.0, 1.0, size=(2, 5))
    exact = mi_exact_general(cat, fs)
    weak, strong = _bounds(cat.gamma, probs, fs)
    for i, j in np.ndindex(2, 5):
        one_weak, one_strong = _bounds(cat.gamma, probs, float(fs[i, j]))
        assert _same_bits(exact[i, j], mi_exact_general(cat, float(fs[i, j])))
        assert _same_bits(weak[i, j], one_weak)
        assert _same_bits(strong[i, j], one_strong)


def test_stacked_psd_error_is_the_loops_first():
    tiny = math.exp(-8.0)
    bad = np.array([[1.0, 0.99, tiny],
                    [0.99, 1.0, 0.99],
                    [tiny, 0.99, 1.0]])
    good = np.full((3, 3), tiny)
    np.fill_diagonal(good, 1.0)
    probs = np.full(3, 1.0 / 3.0)
    gms = np.stack([good, bad, good, bad])
    fs = [0.2, 0.0, 0.4, 0.9]
    new = _outcome(mi_exact_general, CatSpec(probs=probs, gamma=gms),
                   np.array(fs))
    assert new[0] is ArithmeticError
    assert new == _loop_outcome(
        mi_exact_general,
        [(CatSpec(probs=probs, gamma=g), f) for g, f in zip(gms, fs)])


def _valid_factors(M):
    gm = np.full((M, M), math.exp(-6.0))
    np.fill_diagonal(gm, 1.0)
    return gm


@pytest.mark.parametrize("case", ["not_square", "asymmetric", "m_mismatch"])
def test_stacked_input_errors_are_the_loops_first(case):
    probs = np.full(3, 1.0 / 3.0)
    if case == "not_square":
        gms = np.ones((4, 3, 2))
    elif case == "asymmetric":
        gms = np.stack([_valid_factors(3)] * 4)
        gms[2, 0, 1] = 0.2
    else:
        gms = np.stack([_valid_factors(2)] * 4)
    calls = [(g, probs, 0.3) for g in gms]
    for fn in (lambda g, p, f: CatSpec(probs=p, gamma=g), mi_interval_bounds):
        new = _outcome(fn, gms, probs, 0.3)
        assert new[0] is ValueError
        assert new == _loop_outcome(fn, calls)


# ---------------------------------------------------------------------------
# fragment entropy


@pytest.mark.parametrize("D,fN,uniform", [(8, 6, True), (8, 6, False),
                                          (3, 2, False), (5, 3, True),
                                          (1, 1, False), (2, 23, False)])
def test_fragment_entropy_matches_per_element_xlogx(D, fN, uniform):
    rng = np.random.default_rng([D, fN, uniform])
    b = (np.full(D, -0.002) if uniform
         else rng.uniform(-0.9, 0.0, size=D))
    values, mults = fragment_eigenvalues(b, fN)
    assert _same_bits(fragment_entropy_exact(values, mults),
                      ref_fragment_entropy_exact(values, mults))
    spread = values * mults
    assert _same_bits(fragment_entropy_exact(spread),
                      ref_fragment_entropy_exact(spread))

"""Brute-force finite environment model used as ground truth.

The photon directions are binned into a finite grid and each scattered
photon is described by a small Hermitian perturbation with eigenvalues b.
Everything the analytic modules claim can then be recomputed the hard
way: the fragment spectrum by exact enumeration, the receptivity from the
discrete double sum over direction bins, and the general-superposition
mutual information by diagonalization. oracle_battery bundles the whole
cross-examination into one seeded, JSON-serializable report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import chain, combinations_with_replacement

import numpy as np
from numpy.polynomial.legendre import leggauss

from .entropy_kernels import LN2, Nats, _check_unit, _libm, h, xlogx
from .information import mutual_information
from .radiometry import (
    BOLTZMANN,
    HBAR,
    SPEED_OF_LIGHT,
    ZETA_3,
    ZETA_9,
    Scenario,
    isotropic_rate,
    photon_number_density,
)
from .sky import FULL_SPHERE, SkyRegion, _check_cap, integrate_sphere
from .superpositions import (
    CatSpec,
    _branch_matrix_mi,
    mi_interval_bounds,
    mi_mway,
    mi_unbalanced,
)

__all__ = [
    "OracleCapError",
    "DirectionalGrid",
    "fragment_eigenvalues",
    "fragment_entropy_exact",
    "fragment_entropy_change_exact",
    "fragment_entropy_change_series",
    "analytic_entropy_change",
    "entropy_error_halving",
    "discrete_gamma",
    "matrix_element_diag",
    "scattering_probability_grid",
    "discrete_alpha",
    "planck_spectral_nodes",
    "mi_exact_general",
    "oracle_battery",
]

DEFAULT_CAP = 10_000_000
_SERIES_TOL = 1e-17          # the moment series stops at a term below this
_SERIES_MAX_TERMS = 1 << 21  # and gives up after this many terms
_HALVING_GAP_ROUNDINGS = 100  # so that a ratio holds <= ~2% of rounding
# Multiset tables of at most this many groups are kept for reuse; the
# battery's largest, (D_B, fN) = (8, 6), has 1,716 and holds 96 KB.
_CACHED_GROUPS = 4096
_CACHED_MODELS = 8  # the battery's five models plus a few of the caller's


class OracleCapError(RuntimeError):
    """Requested exact enumeration exceeds the configured size cap."""


def _check_b(b, stack: bool = False) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.size == 0 or b.ndim != 1 and not (stack and b.ndim > 1):
        raise ValueError("b must be a nonempty 1-d array of eigenvalues"
                         + (", or a stack of them" if stack else ""))
    if not np.isfinite(b).all():
        raise ValueError("perturbation eigenvalues must be finite, got "
                         f"{b[~np.isfinite(b)][0]}")
    if np.any(1.0 + b < 0.0):
        raise ValueError("perturbation eigenvalues need 1 + b >= 0, "
                         f"got {b[1.0 + b < 0.0][0]}")
    return b


def _check_count(name: str, value) -> int:
    if value is True or not (isinstance(value, (int, np.integer)) and value > 0):
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def _largest_multiplicity(D: int, fN: int) -> int:
    """fN! / prod(count!) at the most even split of fN photons over D indices.

    No multiset has a larger multiplicity. Built as a product of binomials,
    one per nonempty index, so fN! is never formed.
    """
    q, r = divmod(fN, D)
    largest, photons = 1, 0
    for count in [q + 1] * r + [q] * (min(D, fN) - r):
        photons += count
        largest *= math.comb(photons, count)
    return largest


def _multisets(D: int, fN: int):
    """The b-independent half of the spectrum: the distinct runs (j, c) of
    c copies of index j, after (0, 0); per run rank, each multiset's slot
    among them (0 for no run); and the exact int64 multiplicities. Tables
    up to _CACHED_GROUPS groups are built once and shared read-only."""
    if math.comb(D + fN - 1, fN) <= _CACHED_GROUPS:
        return _cached_multisets(D, fN)
    return _enumerate_multisets(D, fN)


def _enumerate_multisets(D: int, fN: int):
    groups = math.comb(D + fN - 1, fN)
    combos = np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(D), fN)),
        dtype=np.intp, count=groups * fN,
    ).reshape(groups, fN)

    # Runs of equal indices in row-major order. Every row starts with a
    # run, so each run ends where the next one starts.
    starts = np.ones((groups, fN), dtype=bool)
    np.not_equal(combos[:, 1:], combos[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=groups * fN)
    cell = combos.ravel()[first] * (fN + 1) + counts
    row, col = np.divmod(first, fN)
    rank = np.arange(first.size) - np.flatnonzero(col == 0)[row]

    # Number the distinct run cells in order, after the cell (0, 0) of no
    # run, whose factor roots[0] ** 0 = 1 fills each missing run.
    slot = np.zeros(D * (fN + 1), dtype=np.intp)
    slot[0] = slot[cell] = 1
    used = np.flatnonzero(slot)
    slot[used] = np.arange(used.size)
    slots = np.zeros((int(rank.max()) + 1, groups), dtype=np.intp)
    slots[rank, row] = slot[cell]

    # A run of c after col photons brings C(col + c, c), read from Pascal's
    # rectangle filled by addition: an entry in use is at least its
    # summands, so it fits in int64 where an unused one may wrap.
    pascal = np.ones((col.max() + 1, counts.max() + 1), dtype=np.int64)
    for above, below in zip(pascal, pascal[1:]):
        np.add.accumulate(above, out=below)
    binomials = np.ones(slots.shape, dtype=np.int64)
    binomials[rank, row] = pascal[col, counts]
    runs = tuple(divmod(k, fN + 1) for k in used.tolist())
    return runs, slots, binomials.prod(axis=0)


@functools.lru_cache(maxsize=_CACHED_MODELS)
def _cached_multisets(D: int, fN: int):
    runs, slots, mult = _enumerate_multisets(D, fN)
    slots.flags.writeable = mult.flags.writeable = False
    return runs, slots, mult


def fragment_eigenvalues(b, fN, cap: int = DEFAULT_CAP):
    """Exact fragment spectrum: pairs (1 +/- prod sqrt(1+b_j)) / (2 D^fN).

    Index vectors J over the fN photons are grouped into multisets, so the
    returned arrays hold one (value, multiplicity) entry per distinct
    eigenvalue product instead of D^fN rows. The cap guards the implied
    total count D^fN, not the (much smaller) number of groups. A stack b
    of shape (..., D) gives values of shape (..., 2 groups) and one shared
    multiplicity array, from one enumeration of the multisets.

    The multisets are enumerated as one (groups, fN) index array and split
    into runs of equal indices; the work arrays hold O(groups x fN) entries
    whatever D_B. A run of c copies of index j contributes roots[j] ** c,
    one scalar pow per distinct run, multiplied in ascending j. A
    multiplicity fN! / prod(c!) is the exact int64 product of the binomials
    C(photons up to the run's end, c), looked up in a Pascal table; each
    partial product is at most the multiplicity itself. OverflowError is
    raised when a multiplicity exceeds int64.
    """
    b = _check_b(b, stack=True)
    fN = _check_count("photon count fN", fN)
    D = b.shape[-1]
    total = D ** fN
    if total > cap:
        raise OracleCapError(f"D_B^fN = {D}^{fN} = {total} exceeds the "
                             f"enumeration cap {cap}")
    if _largest_multiplicity(D, fN) > np.iinfo(np.int64).max:
        raise OverflowError(f"multiplicities of D_B^fN = {D}^{fN} do not fit "
                            "in int64")
    runs, slots, mult = _multisets(D, fN)
    factors = np.array([[r[j] ** c for j, c in runs] for r in np.sqrt(
        1.0 + b).reshape(-1, D).tolist()]).reshape(*b.shape[:-1], len(runs))
    g = factors[..., slots[0]]
    for s in slots[1:]:
        g *= factors[..., s]
    norm = 2.0 * float(total)
    values = np.stack(((1.0 + g) / norm, (1.0 - g) / norm), axis=-1)
    return values.reshape(*g.shape[:-1], -1), np.repeat(mult, 2)


def fragment_entropy_exact(values, multiplicities=None) -> Nats:
    """Entropy -sum lambda ln lambda of a (grouped) normalized spectrum."""
    values = np.asarray(values, dtype=float)
    if multiplicities is None:
        mult = np.ones_like(values)
    else:
        mult = np.asarray(multiplicities, dtype=float)
        if mult.shape != values.shape:
            raise ValueError("values and multiplicities must align")
        if np.any(mult < 0.0):
            raise ValueError(
                f"multiplicities must be nonnegative, got {mult[mult < 0.0][0]}")
    if not (values >= -1e-12).all():
        raise ValueError(f"spectrum values must be nonnegative, got {values.min()}")
    total = float((values * mult).sum())
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"spectrum sums to {total}, not 1")
    # One logarithm per distinct value; the expanded terms keep their bits.
    v, where = np.unique(np.clip(values, 0.0, None), return_inverse=True)
    return float(-(mult * xlogx(v)[where]).sum())


def fragment_entropy_change_exact(b, fN, cap: int = DEFAULT_CAP) -> Nats:
    """Entropy gained by the fragment over its no-scattering baseline."""
    b = _check_b(b)  # one spectrum; fragment_eigenvalues checks fN
    values, mults = fragment_eigenvalues(b, fN, cap)
    return fragment_entropy_exact(values, mults) - int(fN) * math.log(np.size(b))


def fragment_entropy_change_series(b, fN) -> Nats:
    """Same entropy change through the moment series, no enumeration.

    Averaging the kernel series over index vectors factorizes each term
    into powers of q_m = mean_j (1+b_j)^m, giving

        dH = ln 2 - sum_m q_m^fN / (2m(2m-1))

    exactly. This is the route past the enumeration cap. Components with
    b = 0 leave a constant floor in q_m whose full series sums to ln 2
    times the floor's power; that part is added in closed form so the
    numerical tail stays geometric.
    """
    b = _check_b(b)
    if np.any(b > 1e-12):
        raise ValueError("moment series requires nonpositive b")
    fN = _check_count("photon count fN", fN)
    base = 1.0 + b
    floor = float((base >= 1.0).mean()) ** fN
    acc = 0.0
    for start in range(1, _SERIES_MAX_TERMS, 1024):
        ms = np.arange(start, start + 1024, dtype=float)
        q = (base[:, None] ** ms).mean(axis=0)
        terms = (q ** fN - floor) / (2.0 * ms * (2.0 * ms - 1.0))
        acc += float(terms.sum())
        if terms[-1] < _SERIES_TOL:
            break
    else:
        raise ArithmeticError("moment series did not converge; some b is "
                              "too close to zero")
    return LN2 - (acc + floor * LN2)


def analytic_entropy_change(b, fN) -> Nats:
    """First-order prediction ln 2 - h(exp(fN mean(b))) for the same model."""
    b = _check_b(b)
    if np.any(b > 1e-12):
        raise ValueError("analytic form requires nonpositive b")
    fN = _check_count("photon count fN", fN)
    return LN2 - h(math.exp(fN * float(b.mean())))


def entropy_error_halving(base_b: float, D_B: int, fN: int,
                          levels: int = 3) -> list[float]:
    """Exact-vs-analytic gap ratios as a uniform b is halved repeatedly.

    A clean second-order error shrinks by about 4 per halving; the
    returned list holds the successive ratios. The levels' spectra are
    one (levels, D_B) stack, so the model is enumerated once. Each gap is
    the difference of entropies of about fN ln D_B + ln 2, so a gap within
    _HALVING_GAP_ROUNDINGS roundings of that size is refused as noise.
    """
    if not -1.0 <= base_b < 0.0:
        raise ValueError(f"base_b must be finite and in [-1, 0), got {base_b}")
    D_B = _check_count("environment size D_B", D_B)
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")
    b = np.array([np.full(D_B, base_b / 2 ** level) for level in range(levels)])
    values, mults = fragment_eigenvalues(b, fN)
    baseline = int(fN) * math.log(D_B)
    errors = [abs(fragment_entropy_exact(v, mults) - baseline
                  - analytic_entropy_change(row, fN))
              for v, row in zip(values, b)]
    floor = _HALVING_GAP_ROUNDINGS * np.finfo(float).eps * (baseline + LN2)
    for level, gap in enumerate(errors):
        if not gap > floor:
            raise ValueError(f"base_b = {base_b} is too small to resolve: "
                             f"the gap at halving {level} is {gap:.3g}, not "
                             f"above its entropies' rounding bound {floor:.3g}")
    return [errors[i] / errors[i + 1] for i in range(levels - 1)]


def discrete_gamma(s) -> float:
    """Single-photon decoherence factor |mean of diagonal overlaps|^2."""
    s = np.asarray(s)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a nonempty list of diagonal overlaps")
    if not (np.abs(s) <= 1.0 + 1e-12).all():
        raise ValueError(f"overlap magnitudes cannot exceed 1, got {np.abs(s).max()}")
    return float(abs(s.mean()) ** 2)


def matrix_element_diag(k: float, theta: float, scenario: Scenario,
                        V: float, t: float) -> float:
    """First-order diagonal overlap of one boxed photon after time t.

    The deficit from unity is (2 pi / 15)(3 + 11 cos^2 theta) times the
    polarizability volume squared over the box volume, times the photon's
    k^6 and the elapsed path ct. Valid while the deficit is small.
    """
    for name, value in (("k", k), ("t", t)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if not 0.0 < V < math.inf:
        raise ValueError(f"V must be finite and positive, got {V}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    deficit = (
        (2.0 * math.pi / 15.0)
        * (3.0 + 11.0 * math.cos(theta) ** 2)
        * scenario.effective_radius_m ** 6
        * scenario.dx_m ** 2
        * k ** 6
        * SPEED_OF_LIGHT
        * t
        / V
    )
    return 1.0 - deficit


@dataclass(frozen=True, eq=False)
class DirectionalGrid:
    """Direction bins, in theta rings of n_phi, and two row sums of the
    pairwise scattering probabilities P_nm = |U_nm|^2 of the single-photon
    map: leak[n] = sum_{m != n} P_nm, and cross[n] = sum_{m not in mask}
    P_nm, where mask marks the bins inside the illuminated region. Both are
    summed in closed form from six moments of each theta ring's bins when
    the grid is built; no P_nm is formed. cross is filled on the rings that
    hold a mask row and NaN elsewhere. Another region on the same bins is
    replace(grid, mask=m). Bins have solid angle delta_omega = 4 pi / D_S."""

    points: np.ndarray
    mask: np.ndarray
    n_phi: int
    coupling: float
    leak: np.ndarray = field(init=False)
    cross: np.ndarray = field(init=False)

    def __post_init__(self):
        u, n_phi = self.points[:, 2], self.n_phi
        if not n_phi >= 1 or self.D_S % n_phi or np.any(
                u.reshape(-1, n_phi) != u[::n_phi, None]):
            raise ValueError(f"points must lie in theta rings of n_phi = "
                             f"{n_phi} rows that share one cos(theta), got "
                             f"{self.D_S} points")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.D_S,):
            raise ValueError("mask must be 1-d with one flag per direction bin "
                             f"({self.D_S}), got shape {mask.shape}")
        # cos_nj = u_n u_m + x_n x_j + y_n y_j, so (1 + cos^2) summed over
        # bins j of ring m needs their count and sums of x, y, x^2, xy, y^2.
        # The ring weight w, exactly 0 on the diagonal, drops a bin's own
        # ring; (u_n - u_m)^2 is not expanded, which would cancel.
        x, y = self.points[:, 0], self.points[:, 1]
        monomials = np.stack((np.ones(self.D_S), x, y, x * x, x * y, y * y),
                             axis=-1).reshape(-1, n_phi, 6)
        u = u[::n_phi]
        a = u[:, None] * u
        w = self.coupling * self.delta_omega * (u[:, None] - u) ** 2
        w_a, w_aa = w * a, w * a * a

        def row_sums(moments):
            """P_nm summed over the bins counted by moments, 6 per ring."""
            N, X, Y, XX, XY, YY = moments.T
            coeffs = np.stack((w @ N + w_aa @ N, 2.0 * (w_a @ X),
                               2.0 * (w_a @ Y), w @ XX, 2.0 * (w @ XY),
                               w @ YY), axis=-1)
            return (monomials @ coeffs[:, :, None]).ravel()

        rings = mask.reshape(-1, n_phi)
        leak = row_sums(monomials.sum(axis=1))
        cross = row_sums((~rings[:, None, :] @ monomials)[:, 0])
        cross.reshape(-1, n_phi)[~rings.any(axis=1)] = np.nan
        if leak.max() >= 1.0:
            raise ValueError(f"coupling {self.coupling} leaks probability "
                             f"{leak.max():.3f} >= 1; reduce it to stay in "
                             "the perturbative regime")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "leak", leak)
        object.__setattr__(self, "cross", cross)

    @property
    def D_S(self) -> int:
        return self.points.shape[0]

    @property
    def delta_omega(self) -> float:
        return FULL_SPHERE / self.D_S


def scattering_probability_grid(n_theta: int, n_phi: int, theta0: float,
                                chi: float = 0.0,
                                coupling: float = 1e-6) -> DirectionalGrid:
    """Equal-area direction bins plus first-order transition probabilities.

    Bins are midpoints of an n_theta x n_phi grid in (cos theta, phi), all
    with solid angle 4 pi / (n_theta n_phi). Off-diagonal probabilities
    follow the dipole angular kernel scaled by the coupling; diagonals
    complete each row to one. An even n_theta puts the equator on a bin
    edge, so a half-sphere region is represented without straddling bins.

    Building the grid holds a few arrays of D_S entries and three of
    n_theta x n_theta, under 0.5 MB at 32 x 64 bins.
    """
    for name, value in (("n_theta", n_theta), ("n_phi", n_phi)):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_theta < 2 or n_phi < 2:
        raise ValueError("need at least 2 bins per axis")
    for name, value in (("coupling", coupling), ("theta0", theta0),
                        ("chi", chi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _check_cap(theta0, chi)
    if coupling <= 0.0:
        raise ValueError("coupling must be positive")
    u = -1.0 + (np.arange(n_theta) + 0.5) * (2.0 / n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    uu = np.repeat(u, n_phi)
    pp = np.tile(phi, n_theta)
    s = np.sqrt(1.0 - uu ** 2)
    points = np.column_stack((s * np.cos(pp), s * np.sin(pp), uu))
    axis = np.array([math.sin(chi), 0.0, math.cos(chi)])
    return DirectionalGrid(points=points, n_phi=n_phi, coupling=coupling,
                           mask=points @ axis >= math.cos(theta0))


def discrete_alpha(grid: DirectionalGrid) -> float:
    """Receptivity from the discrete double sum over direction bins.

    z = -sum_{n in B, m not in B} P_nm / D_B is the record made outside
    the region, ln gamma = 2 ln mean_{n in B} sqrt(P_nn) the record made
    anywhere; their ratio converges to the continuum receptivity as the
    grid refines. Neither is a difference from 1: with P_nn = 1 - leak[n],
    ln gamma = 2 log1p(mean expm1(log1p(-leak) / 2)). Both read the row
    sums the grid kept, summed in closed form over each theta ring.
    """
    if not isinstance(grid, DirectionalGrid):
        raise TypeError(
            f"discrete_alpha needs a DirectionalGrid, got {type(grid).__name__}")
    mask = grid.mask
    D_B = int(mask.sum())
    if D_B == 0:
        raise ValueError("region mask selects no direction bins")
    if mask.all():
        return 0.0
    z = -float(grid.cross[mask].sum()) / D_B
    log_gamma = 2.0 * math.log1p(
        float(np.expm1(0.5 * np.log1p(-grid.leak[mask])).mean()))
    if log_gamma >= 0.0:
        raise ArithmeticError(
            "gamma = 1: the photons record nothing and alpha is undefined"
        )
    return z / log_gamma


def planck_spectral_nodes(n: int = 32):
    """Quadrature (kappa_i, w_i) for the thermal photon spectrum.

    kappa is the dimensionless wavenumber k c hbar / (k_B T); the weights
    integrate the normalized density kappa^2 / (e^kappa - 1) / (2 zeta(3))
    after the half-line is mapped onto (0, 1) by kappa = 5x/(1-x). The
    sixth moment, the one the decoherence rate needs, comes out at
    8! zeta(9) / (2 zeta(3)) to better than 1e-9 with 32 nodes.
    """
    if n is True or not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"spectral node count n must be an integer >= 2, "
                         f"got {n!r}")
    kappa, weights = _planck_rule(int(n))
    return kappa.copy(), weights.copy()


@functools.lru_cache(maxsize=8)  # the battery asks for n = 32 only
def _planck_rule(n: int):
    """planck_spectral_nodes' arrays, computed once per n and read-only."""
    x, w = leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    kappa = 5.0 * x / (1.0 - x)
    jacobian = 5.0 / (1.0 - x) ** 2
    density = kappa ** 2 * np.exp(-kappa) / (-np.expm1(-kappa))
    weights = w * jacobian * density / (2.0 * ZETA_3)
    kappa.flags.writeable = weights.flags.writeable = False
    return kappa, weights


def mi_exact_general(cat: CatSpec, f) -> Nats:
    """Mutual information of an arbitrary cat by direct diagonalization.

    I(f) = E(f) + E(1) - E(1-f), with E(w) the entropy of the branch
    matrix [sqrt(p_a p_b) Gamma_ab^(w/2)]. This is the uniform oracle
    behind every closed-form mutual information here. A cat with a stack
    of factor matrices, or an array f, gives an array.
    """
    _check_unit("f", f)
    return _branch_matrix_mi(cat.probs, cat.gamma, f)


def oracle_battery(seed: int = 0) -> dict:
    """Run every oracle cross-check and return a serializable report.

    The report lists one entry per check with the numbers behind the
    verdict; 'all_passed' aggregates them. The seed feeds the random
    model draws and is echoed back so a report can be reproduced.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, passed, **detail):
        checks.append({"name": name, "passed": bool(passed), **{
            key: val.tolist() if isinstance(val, np.ndarray) else val
            for key, val in detail.items()}})

    # Exact spectrum plumbing on a random model.
    b_rand = -rng.uniform(0.001, 0.05, size=5)
    values, mults = fragment_eigenvalues(b_rand, 3)
    total = float((values * mults).sum())
    record("spectrum_normalization",
           abs(total - 1.0) < 1e-12 and values.min() > -1e-15,
           total=total, min_eigenvalue=float(values.min()))

    dh0 = fragment_entropy_change_exact(np.zeros(4), 3)
    record("zero_b_no_imprint", abs(dh0) < 1e-12, entropy_change=dh0)

    values, mults = fragment_eigenvalues([-0.03], 1)
    root = math.sqrt(0.97)
    direct = np.array([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
    record("single_photon_pair",
           bool(np.allclose(values, direct, rtol=0.0, atol=1e-15)),
           values=values, direct=direct)

    # Enumeration vs moment series (exact identity) and vs first order.
    b3 = np.array([-0.02, -0.01, -0.005])
    exact = fragment_entropy_change_exact(b3, 2)
    series = fragment_entropy_change_series(b3, 2)
    record("moment_series_identity", abs(exact - series) < 1e-13,
           exact=exact, series=series, gap=abs(exact - series))

    analytic = analytic_entropy_change(b3, 2)
    gap = abs(exact - analytic)
    bound = float((b3 ** 2).sum())
    record("first_order_gap", gap < bound,
           exact=exact, analytic=analytic, gap=gap, quadratic_bound=bound)

    ratios = entropy_error_halving(-0.002, D_B=8, fN=6, levels=3)
    record("halving_second_order", all(3.5 <= r <= 4.5 for r in ratios),
           ratios=ratios)

    # Thermal spectrum quadrature.
    kappa, wts = planck_spectral_nodes()
    moment6 = float((wts * kappa ** 6).sum())
    target6 = math.factorial(8) * ZETA_9 / (2.0 * ZETA_3)
    record("planck_sixth_moment",
           abs(float(wts.sum()) - 1.0) < 1e-9
           and abs(moment6 - target6) / target6 < 1e-8,
           weight_sum=float(wts.sum()), moment=moment6, target=target6)

    # Assemble the isotropic rate from discrete pieces: photon density
    # times twice the spectrally and angularly averaged overlap deficit.
    scn = Scenario(radius_m=1e-6, permittivity=4.0, dx_m=1e-6,
                   temperature_K=2.725, region=SkyRegion.isotropic())
    y = BOLTZMANN * scn.temperature_K / (HBAR * SPEED_OF_LIGHT)
    mean_k6 = moment6 * y ** 6
    angular = integrate_sphere(
        lambda p: 3.0 + 11.0 * p[:, 2] ** 2, order=16
    ) / FULL_SPHERE
    density = photon_number_density(scn.temperature_K, FULL_SPHERE)
    assembled = (
        2.0 * density * (2.0 * math.pi / 15.0) * angular
        * scn.effective_radius_m ** 6 * scn.dx_m ** 2
        * mean_k6 * SPEED_OF_LIGHT
    )
    direct_rate = isotropic_rate(scn)
    rel = abs(assembled - direct_rate) / direct_rate
    record("rate_assembly", rel < 1e-8,
           assembled=assembled, direct=direct_rate, relative_gap=rel)

    # Structure of the first-order overlap.
    k_probe = 1e6
    s_eq = matrix_element_diag(k_probe, math.pi / 2.0, scn, V=1.0, t=1.0)
    s_pole = matrix_element_diag(k_probe, 0.0, scn, V=1.0, t=1.0)
    d_eq = 1.0 - s_eq
    d_pole = 1.0 - s_pole
    d_eq2 = 1.0 - matrix_element_diag(k_probe, math.pi / 2.0, scn, V=1.0, t=2.0)
    gamma_small = discrete_gamma(np.full(3, s_eq))
    record(
        "first_order_overlap",
        abs(d_eq / d_pole - 3.0 / 14.0) < 1e-12
        and abs(d_eq2 - 2.0 * d_eq) < 1e-15
        and abs(gamma_small - (1.0 - 2.0 * d_eq)) < 2.0 * d_eq ** 2 + 1e-15,
        deficit_ratio=d_eq / d_pole,
        deficit=d_eq,
        gamma=gamma_small,
    )

    # Discrete receptivity: trivial regions, grid convergence, coupling
    # independence.
    alpha_full = discrete_alpha(scattering_probability_grid(8, 16, math.pi))
    record("alpha_full_sphere", alpha_full == 0.0, value=alpha_full)

    half_skies = [scattering_probability_grid(n, 2 * n, math.pi / 2.0)
                  for n in (8, 16, 32)]
    single = np.arange(half_skies[0].D_S) == 0
    alpha_single = discrete_alpha(replace(half_skies[0], mask=single))
    record("alpha_single_direction", abs(alpha_single - 1.0) < 1e-4,
           value=alpha_single)

    target_alpha = 1135.0 / 1280.0
    sizes = [g.D_S for g in half_skies]
    alphas = [discrete_alpha(g) for g in half_skies]
    errors = [abs(a - target_alpha) for a in alphas]
    order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    record(
        "alpha_grid_convergence",
        order >= 1.0 and errors[-1] < errors[0],
        sizes=sizes,
        alphas=alphas,
        errors=errors,
        observed_order=float(order),
        target=target_alpha,
    )

    # The 16 x 32 grid above has the default coupling 1e-6.
    a_coup = [
        alphas[1],
        discrete_alpha(scattering_probability_grid(16, 32, math.pi / 2.0,
                                                   coupling=1e-7)),
    ]
    record("alpha_coupling_invariance", abs(a_coup[0] - a_coup[1]) < 1e-5,
           values=a_coup)

    # General-cat oracle against every closed form.
    g10 = math.exp(-10.0)
    mat2 = np.array([[1.0, g10], [g10, 1.0]])
    cat2 = CatSpec(probs=np.array([0.5, 0.5]), gamma=mat2)
    f4 = np.array([0.1, 0.2, 0.5, 0.8])
    gap2 = float(np.abs(mi_exact_general(cat2, f4)
                        - mutual_information(g10, 1.0, f4)).max())
    record("general_mi_two_branch", gap2 < 1e-10, max_gap=gap2)

    lone = mi_exact_general(CatSpec(probs=(1.0, 0.0), gamma=mat2), 0.3)
    record("general_mi_lone_branch", abs(lone) < 1e-12, value=lone)

    mat3 = np.full((3, 3), g10)
    np.fill_diagonal(mat3, 1.0)
    cat3 = CatSpec(probs=np.full(3, 1.0 / 3.0), gamma=mat3)
    gap3 = float(np.abs(mi_exact_general(cat3, f4[:3])
                        - mi_mway(g10, f4[:3], 3)).max())
    record("general_mi_three_branch", gap3 < 1e-10, max_gap=gap3)

    # Unbalanced cat against its 2x2 eigenvalue pairs.
    mu = 0.5

    def pair_entropy(w):
        x = math.sqrt(mu + (1.0 - mu) * g10 ** w)
        lam = np.array([(1.0 + x) / 2.0, (1.0 - x) / 2.0])
        return float(-xlogx(lam).sum())

    f_u = 0.2
    eig_mi = pair_entropy(f_u) + pair_entropy(1.0) - pair_entropy(1.0 - f_u)
    kernel_mi = mi_unbalanced(g10, f_u, mu)
    record("unbalanced_eigen_oracle", abs(eig_mi - kernel_mi) < 1e-12,
           eigenvalue_route=eig_mi, kernel_route=kernel_mi)

    # Seeded interval-bound trials with unequal factors, checked as a stack.
    # Each trial draws three log factors, then f, scaled as
    # Generator.uniform scales them: low + (high - low) u.
    trials = 100
    u = rng.random((trials, 4))
    log_g, f_trial = -8.0 + 3.0 * u[:, :3], 0.01 + (0.49 - 0.01) * u[:, 3]
    gm = np.ones((trials, 3, 3))
    rows, cols = np.triu_indices(3, 1)
    gm[:, rows, cols] = gm[:, cols, rows] = _libm(math.exp, log_g)
    probs = np.full(3, 1.0 / 3.0)
    low, high = mi_interval_bounds(gm, probs, f_trial)
    exact_mi = mi_exact_general(CatSpec(probs=probs, gamma=gm), f_trial)
    worst_margin = np.minimum(exact_mi - low, high - exact_mi).min()
    violations = int(np.count_nonzero(
        ~((low - 1e-12 <= exact_mi) & (exact_mi <= high + 1e-12))))
    record("interval_bound_trials", violations == 0,
           trials=trials, violations=violations,
           worst_margin=float(worst_margin))

    return {
        "seed": int(seed),
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }

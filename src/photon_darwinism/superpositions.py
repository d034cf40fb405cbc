"""Information capture for unbalanced and many-component superpositions.

The balanced two-branch results generalize along two axes: unequal branch
weights and M distinguishable branches. Both reduce to substitutions
inside the same entropy kernel h. When the branch pairs decohere at
unequal rates no closed form survives, but replacing every pairwise
factor with the weakest (largest) or strongest (smallest) one yields
computable surrogates that bracket the exact answer.

All functions here assume the point-source geometry (receptivity one);
the fragment fraction enters only through powers of the decoherence
factors, which the closed forms take as e^(-t w) at t = -ln Gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy_kernels import (
    LN2,
    Nats,
    _check_unit,
    _decay,
    _exponent,
    _result,
    _stacked,
    h,
    m_spectrum_entropy,
    xlogx,
)

__all__ = [
    "CatSpec",
    "max_entropy",
    "mi_unbalanced",
    "mi_unbalanced_limit",
    "mi_mway",
    "mi_mway_limit",
    "mi_interval_bounds",
]

# Above this pairwise factor the surrogate ordering (weakest pair below,
# strongest pair above) is no longer guaranteed.
BOUND_VALIDITY_GAMMA = math.exp(-5.0)


def _check_probs(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError("need at least two branch probabilities")
    if not ((probs >= 0.0).all() and abs(probs.sum() - 1.0) <= 1e-10):
        raise ValueError("branch probabilities must be nonnegative and sum to 1")
    return probs


def _check_factor_matrix(gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim < 2 or gamma.shape[-1] != gamma.shape[-2]:
        raise ValueError("factor matrix must be square")
    # np.allclose(gamma, gamma.T, atol=1e-12) written out: each entry lies
    # within 1e-12 + 1e-5 |m| of its finite mirror m, or equals it, so equal
    # infinities count as close and NaN never does.
    mirror = gamma.swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):
        near = np.abs(gamma - mirror) <= 1e-12 + 1e-5 * np.abs(mirror)
    if not (near & np.isfinite(mirror) | (gamma == mirror)).all():
        raise ValueError("factor matrix must be symmetric")
    if np.any(np.abs(gamma.diagonal(axis1=-2, axis2=-1) - 1.0) > 1e-12):
        raise ValueError("factor matrix must have a unit diagonal")
    if np.any(gamma < 0.0) or np.any(gamma > 1.0 + 1e-12):
        raise ValueError("pairwise factors must lie in [0, 1]")
    return gamma


@dataclass(frozen=True)
class CatSpec:
    """Superposition of M branches: weights plus pairwise decoherence factors.

    gamma[a, b] is the decoherence factor of the branch pair (a, b) after
    the full photon environment has acted; the diagonal is one by
    definition; a stack (..., M, M) holds one matrix per cat.
    """

    probs: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        probs = _check_probs(self.probs)
        gamma = _check_factor_matrix(self.gamma)
        if gamma.shape[-1] != probs.size:
            raise ValueError(
                f"factor matrix is {gamma.shape[-1]}x{gamma.shape[-1]} "
                f"but there are {probs.size} branches"
            )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "gamma", gamma)

    @property
    def M(self) -> int:
        return self.probs.size

    @property
    def mu(self) -> float:
        """Imbalance (p1 - p2)^2 of a two-branch cat."""
        if self.M != 2:
            raise ValueError("mu is defined for two-branch cats only")
        return float((self.probs[0] - self.probs[1]) ** 2)


def max_entropy(probs) -> Nats:
    """Shannon entropy of the branch weights: the classical plateau.

    For two branches this equals ln 2 - h(mu) with mu = (p1 - p2)^2, the
    same kernel that runs the time dependence.
    """
    probs = _check_probs(probs)
    return float(-xlogx(probs).sum())


def mi_unbalanced(gamma, f, mu) -> Nats:
    """Mutual information for branch weights with imbalance mu, point source.

    Every kernel argument x of the balanced result is displaced to
    mu + (1 - mu) x, which interpolates between the balanced case at
    mu = 0 and a lone classical branch at mu = 1. Broadcasts over arrays
    of gamma, f and mu; scalar arguments give a float.
    """
    return _mi_unbalanced(_exponent(gamma), f, mu)


def _mi_unbalanced(t, f, mu) -> Nats:
    """mi_unbalanced at Gamma = e^-t, from t >= 0 (inf allowed)."""
    f, mu = _check_unit("f", f), _check_unit("mu", mu)
    powers = _decay(t, _stacked((1.0 - f, f, 1.0), t, mu))
    h_rest, h_fragment, h_gamma = h(mu + (1.0 - mu) * powers)
    return _result(((LN2 + h_rest) - h_fragment) - h_gamma)


def mi_unbalanced_limit(gamma: float, f: float) -> float:
    """Limit of mi_unbalanced / max_entropy as mu -> 1.

    Both numerator and denominator vanish; their ratio tends to
    1 + Gamma^(1-f) - Gamma^f - Gamma, so even an almost-classical state
    spreads its (tiny) record with the same fragment profile.
    """
    _check_unit("gamma", gamma)
    _check_unit("f", f)
    return 1.0 + gamma ** (1.0 - f) - gamma ** f - gamma


def mi_mway(gamma, f, M) -> Nats:
    """Mutual information for M equally weighted branches, common factor.

    Each of the three reduced states carries the M-point spectrum with
    pairwise element Gamma^(w/2) at w = f, 1, 1 - f; the half power is
    the amplitude-level overlap of a single branch pair. Broadcasts over
    arrays of gamma, f and integer-valued M; scalar arguments give a float.
    """
    return _mi_mway(_exponent(gamma), f, M)


def _mi_mway(t, f, M) -> Nats:
    """mi_mway at Gamma = e^-t, from t >= 0 (inf allowed)."""
    f = _check_unit("f", f)
    # The reduced states at w = f, 1 and 1 - f, evaluated in one call.
    halves = _stacked((0.5 * f, 0.5 * 1.0, 0.5 * (1.0 - f)), t, M)
    e_fragment, e_whole, e_rest = m_spectrum_entropy(_decay(t, halves), M)
    return _result((e_fragment + e_whole) - e_rest)


def mi_mway_limit(gamma: float, f: float) -> float:
    """M -> infinity limit of mi_mway / ln M.

    The normalized plateau keeps a full record per branch pair:
    1 + Gamma^((1-f)/2) - Gamma^(f/2) - Gamma^(1/2).
    """
    _check_unit("gamma", gamma)
    _check_unit("f", f)
    return (
        1.0
        + gamma ** (0.5 * (1.0 - f))
        - gamma ** (0.5 * f)
        - gamma ** 0.5
    )


def _branch_matrix_mi(probs: np.ndarray, gamma: np.ndarray, f) -> Nats:
    """I(f) = E(f) + E(1) - E(1-f), E(w) being the entropy of the branch
    matrix [sqrt(p_a p_b) Gamma_ab^(w/2)], from checked weights, factors
    (..., M, M) and an f broadcast against their leading axes."""
    amp, M = np.sqrt(probs), probs.size
    lead = np.broadcast_shapes(gamma.shape[:-2], np.shape(f))
    g = np.broadcast_to(gamma, lead + (M, M)).reshape(-1, 1, M, M)
    f = np.broadcast_to(np.asarray(f, dtype=float), lead).ravel()
    ws = np.stack((f, np.ones_like(f), 1.0 - f), axis=-1)
    # E(w) at w = f, 1 and 1 - f, powered and diagonalized in one stacked
    # call each. numpy takes a Python-float exponent 0.5 as sqrt, which
    # an array of exponents does not reproduce bit for bit.
    e = 0.5 * ws[..., None, None]
    rho = np.outer(amp, amp) * np.where(e == 0.5, np.sqrt(g), g ** e)
    eigs = np.linalg.eigvalsh(rho)
    lowest = eigs.min(axis=-1)
    for i, k in np.argwhere(lowest < -1e-9)[:1]:
        raise ArithmeticError(
            f"branch matrix at w = {ws[i, k]} is not positive semidefinite "
            f"(min eigenvalue {lowest[i, k]:.3e}); the factor matrix is "
            "not realizable by photon overlaps"
        )
    e_f, e_whole, e_rest = np.moveaxis(
        -xlogx(np.clip(eigs, 0.0, None)).sum(axis=-1), -1, 0)
    return _result((e_f + e_whole - e_rest).reshape(lead))


def mi_interval_bounds(gamma_matrix, probs, f) -> tuple[Nats, Nats]:
    """Bracket the unequal-factor MI by its weak and strong surrogates.

    Returns (mi_weak, mi_strong): the mutual information recomputed with
    every pairwise factor set to the largest (weakest decoherence) and
    smallest (strongest) off-diagonal entry. The exact value lies between
    them for f < 1/2 once every factor is small; a weakest factor above
    e^-5 is flagged because the ordering is then unverified. A stack
    (..., M, M), f broadcast against its leading axes, gives two arrays.
    """
    cat = CatSpec(probs=probs, gamma=gamma_matrix)
    _check_unit("f", f)
    M = cat.M
    off = ~np.eye(M, dtype=bool)
    gamma_weak = cat.gamma[..., off].max(axis=-1)
    gamma_strong = cat.gamma[..., off].min(axis=-1)
    if (gamma_weak > BOUND_VALIDITY_GAMMA).any():
        warnings.warn(
            f"weakest pair factor {gamma_weak.max():.3e} exceeds e^-5; the "
            "surrogates are not guaranteed to bracket the exact value",
            stacklevel=2,
        )
    pair = np.stack(np.broadcast_arrays(gamma_weak, gamma_strong, f)[:2])
    # Uniform weights have a closed form; others diagonalize each surrogate.
    if np.allclose(cat.probs, 1.0 / M, atol=1e-12):
        return tuple(map(_result, mi_mway(pair, f, M)))
    surrogates = np.where(off, pair[..., None, None], 1.0)
    return tuple(map(_result, _branch_matrix_mi(cat.probs, surrogates, f)))

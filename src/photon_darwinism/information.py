"""Entropies, mutual information and redundancy for the balanced pair state.

Everything is dimensionless: the decoherence factor Gamma (or its exponent
t in decoherence times), the receptivity alpha, the fragment fraction f
and the information deficit delta. The mutual information between the
system and a fragment holding a fraction f of the photons is

    I(f) = ln 2 + h(Gamma^(1-f)) - h(Gamma^(alpha f)) - h(Gamma),

evaluated through the closed-form kernel h, which sums the underlying
power series exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy_kernels import LN2, Nats, h

__all__ = [
    "InfoParams",
    "PipCurve",
    "system_entropy",
    "fragment_entropy_change",
    "mutual_information",
    "mutual_information_at_time",
    "mutual_information_approx",
    "redundancy_exact",
    "redundancy_estimate",
    "redundancy_lower_bound",
    "pip_curve",
]

# Largest deficit for which the plateau estimate makes sense: at
# delta = 1/(2 ln 2) the estimate's denominator crosses zero.
MAX_DEFICIT = 1.0 / (2.0 * LN2)


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _check_time(t_over_tauD: float) -> None:
    if not 0.0 <= t_over_tauD < math.inf:
        raise ValueError(
            f"t_over_tauD must be finite and nonnegative, got {t_over_tauD}"
        )


@dataclass(frozen=True)
class InfoParams:
    """Dimensionless bundle feeding the information-theoretic operations."""

    gamma: float
    alpha: float
    f: float
    t_over_tauD: float | None = None

    def __post_init__(self):
        _check_unit("gamma", self.gamma)
        _check_unit("alpha", self.alpha)
        _check_unit("f", self.f)

    @classmethod
    def at_time(cls, t_over_tauD: float, alpha: float, f: float) -> "InfoParams":
        _check_time(t_over_tauD)
        return cls(gamma=math.exp(-t_over_tauD), alpha=alpha, f=f,
                   t_over_tauD=t_over_tauD)


def system_entropy(gamma: float) -> Nats:
    """Entropy of the decohered pair state: ln 2 - h(Gamma)."""
    _check_unit("gamma", gamma)
    return LN2 - h(gamma)


def fragment_entropy_change(gamma: float, alpha: float, f: float) -> Nats:
    """Entropy gained by a fragment of fraction f: ln 2 - h(Gamma^(alpha f)).

    At alpha = 0 the exponent collapses to 0 and the gain vanishes for
    every Gamma: a fully angle-mixed environment records nothing.
    """
    _check_unit("gamma", gamma)
    _check_unit("alpha", alpha)
    _check_unit("f", f)
    return LN2 - h(gamma ** (alpha * f))


def mutual_information(gamma: float, alpha: float, f: float) -> Nats:
    """Mutual information between the system and a fragment of fraction f."""
    _check_unit("gamma", gamma)
    _check_unit("alpha", alpha)
    _check_unit("f", f)
    if alpha == 0.0:
        # The ln 2 contributions cancel exactly in this limit.
        return h(gamma ** (1.0 - f)) - h(gamma)
    return LN2 + h(gamma ** (1.0 - f)) - h(gamma ** (alpha * f)) - h(gamma)


def mutual_information_at_time(t_over_tauD: float, alpha: float, f: float) -> Nats:
    """Mutual information with Gamma = exp(-t/tau_D) formed inside.

    Preferred for large times: each h argument is exponentiated from the
    combined exponent, so t = 1000 underflows gracefully to the plateau
    instead of losing the exponent structure in Gamma itself.
    """
    _check_time(t_over_tauD)
    _check_unit("alpha", alpha)
    _check_unit("f", f)
    if alpha == 0.0:
        return h(math.exp(-t_over_tauD * (1.0 - f))) - h(math.exp(-t_over_tauD))
    return (
        LN2
        + h(math.exp(-t_over_tauD * (1.0 - f)))
        - h(math.exp(-t_over_tauD * alpha * f))
        - h(math.exp(-t_over_tauD))
    )


def mutual_information_approx(gamma: float, alpha: float, f: float) -> Nats:
    """Plateau approximation ln 2 - Gamma^(alpha f) / 2.

    Valid for 0 < f < 1/2 with alpha > 0, where the lowest power of Gamma
    dominates the series. The f -> 0 limit of this expression is ln 2 - 1/2
    rather than the true I(0) = 0, hence the strict precondition.
    """
    _check_unit("gamma", gamma)
    if not 0.0 < f < 0.5:
        raise ValueError(f"approximation needs 0 < f < 1/2, got f = {f}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"approximation needs alpha > 0, got {alpha}")
    return LN2 - 0.5 * gamma ** (alpha * f)


def redundancy_exact(gamma: float | None, alpha: float, delta: float,
                     t_over_tauD: float | None = None,
                     f_tol: float = 1e-12):
    """Redundancy 1/f_delta by bisection, or None when not yet redundant.

    Solves I(f) = (1 - delta) ln 2 for the smallest fragment fraction on
    (0, 1/2]; fractions above one half cannot be disjointly replicated, so
    a solution there reports None rather than a redundancy below 2.

    Passing t_over_tauD switches to the exponent form of the mutual
    information, which stays accurate long after Gamma itself has
    underflowed.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if t_over_tauD is None:
        if gamma is None:
            raise ValueError("provide either gamma or t_over_tauD")
        _check_unit("gamma", gamma)
        if gamma == 1.0:
            return None
        if gamma == 0.0:
            return math.inf
        t_over_tauD = -math.log(gamma)
    else:
        _check_time(t_over_tauD)
        if t_over_tauD == 0.0:
            return None

    target = (1.0 - delta) * LN2

    def shortfall(f):
        return mutual_information_at_time(t_over_tauD, alpha, f) - target

    hi = 0.5
    if shortfall(hi) < 0.0:
        return None
    lo = 0.0
    # I(f) rises monotonically from I(0) = 0, so this bracket is safe.
    while hi - lo > f_tol:
        mid = 0.5 * (lo + hi)
        if shortfall(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 2.0 / (lo + hi)


def redundancy_estimate(t_over_tauD: float, alpha: float, delta: float) -> float:
    """Linear-in-time redundancy estimate alpha t / (tau_D ln(1/(2 delta ln 2)))."""
    if not 0.0 < delta < MAX_DEFICIT:
        raise ValueError(
            f"delta must be in (0, 1/(2 ln 2) = {MAX_DEFICIT:.4f}), got {delta}"
        )
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if t_over_tauD < 10.0:
        warnings.warn(
            "redundancy estimate assumes t well beyond the decoherence time; "
            f"t/tau_D = {t_over_tauD} is in the crossover regime", stacklevel=2
        )
    return alpha * t_over_tauD / math.log(1.0 / (2.0 * delta * LN2))


def redundancy_lower_bound(t_over_tauD: float, delta: float) -> float:
    """Conservative bound (t/tau_D) / ln(1/(delta - Gamma)), alpha = 1 form.

    Requires t > tau_D ln(2/delta) so that the bound's logarithm is
    positive; earlier times carry no guarantee.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if t_over_tauD <= math.log(2.0 / delta):
        raise ValueError(
            f"bound needs t/tau_D > ln(2/delta) = {math.log(2.0 / delta):.4f}, "
            f"got {t_over_tauD}"
        )
    gamma = math.exp(-t_over_tauD)
    return t_over_tauD / math.log(1.0 / (delta - gamma))


@dataclass(frozen=True)
class PipCurve:
    """Partial information plot: I(f) sampled on a fragment-fraction grid."""

    f: np.ndarray
    mi_nats: np.ndarray
    gamma: float
    alpha: float


def pip_curve(gamma: float, alpha: float, f_grid) -> PipCurve:
    """Sample the mutual information on a sorted grid of fragment fractions."""
    f_grid = np.asarray(f_grid, dtype=float)
    if f_grid.ndim != 1 or f_grid.size == 0:
        raise ValueError("f_grid must be a nonempty 1-d array")
    if np.any(np.diff(f_grid) < 0.0):
        raise ValueError("f_grid must be sorted ascending")
    if f_grid[0] < 0.0 or f_grid[-1] > 1.0:
        raise ValueError("fragment fractions must lie in [0, 1]")
    mi = np.array([mutual_information(gamma, alpha, f) for f in f_grid])
    return PipCurve(f=f_grid, mi_nats=mi, gamma=gamma, alpha=alpha)

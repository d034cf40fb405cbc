"""Entropies, mutual information and redundancy for the balanced pair state.

Everything is dimensionless: the decoherence factor Gamma (or its exponent
t in decoherence times), the receptivity alpha, the fragment fraction f
and the information deficit delta. The mutual information between the
system and a fragment holding a fraction f of the photons is

    I(f) = ln 2 + h(Gamma^(1-f)) - h(Gamma^(alpha f)) - h(Gamma),

evaluated through the closed-form kernel h, which sums the underlying
power series exactly.

The mutual information and redundancy functions broadcast over numpy
arrays and return arrays; scalar arguments give Python floats. Each array
element equals the scalar evaluation bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .entropy_kernels import (
    LN2,
    Nats,
    _check_unit,
    _libm,
    _require,
    _result,
    _stacked,
    h,
)

__all__ = [
    "system_entropy",
    "fragment_entropy_change",
    "mutual_information",
    "mutual_information_at_time",
    "mutual_information_approx",
    "redundancy_exact",
    "redundancy_estimate",
    "redundancy_lower_bound",
]

# Largest deficit for which the plateau estimate makes sense: at
# delta = 1/(2 ln 2) the estimate's denominator crosses zero.
MAX_DEFICIT = 1.0 / (2.0 * LN2)

# redundancy_exact bisects [0, 1/2] until the bracket is this narrow.
_F_TOL = 1e-12


def _check_time(t_over_tauD) -> np.ndarray:
    t = np.asarray(t_over_tauD, dtype=float)
    _require((0.0 <= t) & (t < math.inf), t,
             "t_over_tauD must be finite and nonnegative, got {}")
    return t


def _check_delta(delta) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    _require((0.0 < delta) & (delta < 1.0), delta,
             "delta must be in (0, 1), got {}")
    return delta


def _check_alpha(alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    _require((0.0 < alpha) & (alpha <= 1.0), alpha,
             "alpha must be in (0, 1], got {}")
    return alpha


def system_entropy(gamma) -> Nats:
    """Entropy of the decohered pair state: ln 2 - h(Gamma)."""
    return _result(LN2 - h(_check_unit("gamma", gamma)))


def fragment_entropy_change(gamma, alpha, f) -> Nats:
    """Entropy gained by a fragment of fraction f: ln 2 - h(Gamma^(alpha f)).

    At alpha = 0 the exponent collapses to 0 and the gain vanishes for
    every Gamma: a fully angle-mixed environment records nothing.
    """
    gamma = _check_unit("gamma", gamma)
    alpha = _check_unit("alpha", alpha)
    f = _check_unit("f", f)
    return _result(LN2 - h(_libm(math.pow, gamma, alpha * f)))


def _combine(alpha, h_rest, h_fragment, h_gamma):
    """I = ln 2 + h(rest) - h(fragment) - h(Gamma), summed left to right.

    At alpha = 0 the ln 2 contributions cancel exactly, so those lanes
    take h(rest) - h(Gamma) instead.
    """
    return np.where(alpha == 0.0, h_rest - h_gamma,
                    ((LN2 + h_rest) - h_fragment) - h_gamma)


def mutual_information(gamma, alpha, f) -> Nats:
    """Mutual information between the system and a fragment of fraction f."""
    gamma = _check_unit("gamma", gamma)
    alpha = _check_unit("alpha", alpha)
    f = _check_unit("f", f)
    exponents = _stacked((1.0 - f, alpha * f), gamma)
    h_rest, h_fragment = h(_libm(math.pow, gamma, exponents))
    return _result(_combine(alpha, h_rest, h_fragment, h(gamma)))


def _mi_exponent_form(t, alpha, f, h_gamma):
    """I(f) at time t from checked arrays, with h(exp(-t)) given."""
    exponents = _stacked((-t * (1.0 - f), (-t * alpha) * f))
    h_rest, h_fragment = h(_libm(math.exp, exponents))
    return _combine(alpha, h_rest, h_fragment, h_gamma)


def mutual_information_at_time(t_over_tauD, alpha, f) -> Nats:
    """Mutual information with Gamma = exp(-t/tau_D) formed inside.

    Preferred for large times: each h argument is exponentiated from the
    combined exponent, so t = 1000 underflows gracefully to the plateau
    instead of losing the exponent structure in Gamma itself.

    Broadcasts over arrays of t, alpha and f (a times x fractions grid is
    one call with t of shape (T, 1)); h(exp(-t)) is evaluated once per
    time. Scalar arguments give a float.
    """
    t = _check_time(t_over_tauD)
    alpha = _check_unit("alpha", alpha)
    f = _check_unit("f", f)
    h_gamma = h(_libm(math.exp, -t))
    return _result(_mi_exponent_form(t, alpha, f, h_gamma))


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


def redundancy_exact(gamma, alpha, delta, t_over_tauD=None):
    """Redundancy 1/f_delta by bisection, or None when not yet redundant.

    Solves I(f) = (1 - delta) ln 2 for the smallest fragment fraction on
    (0, 1/2]; fractions above one half cannot be disjointly replicated, so
    a solution there reports None rather than a redundancy below 2.
    Perfect decoherence (gamma = 0) gives inf.

    Passing t_over_tauD instead of gamma switches to the exponent form of
    the mutual information, which stays accurate long after Gamma itself
    has underflowed.

    Broadcasts over arrays of gamma (or t_over_tauD), alpha and delta and
    then returns an array in which NaN marks "not redundant". Every lane
    bisects the same bracket [0, 1/2] in lockstep, so each root equals the
    scalar one bit for bit. Scalar arguments give a float or None.
    """
    delta = _check_delta(delta)
    alpha = _check_alpha(alpha)
    if t_over_tauD is not None:
        if gamma is not None:
            raise ValueError("provide either gamma or t_over_tauD, not both")
        t = _check_time(t_over_tauD)
    elif gamma is not None:
        # Gamma = exp(-t); perfect decoherence (Gamma = 0) is t = inf.
        t = _libm(lambda g: -math.log(g) if g > 0.0 else math.inf,
                  _check_unit("gamma", gamma))
    else:
        raise ValueError("provide either gamma or t_over_tauD")
    t, alpha, delta = np.broadcast_arrays(t, alpha, delta)
    roots = np.where(t == math.inf, math.inf, math.nan)
    live = (0.0 < t) & (t < math.inf)
    if live.any():
        roots[live] = _bisect_redundancy(t[live], alpha[live], delta[live])
    if roots.ndim:
        return roots
    return None if math.isnan(roots) else float(roots)


def _bisect_redundancy(t, alpha, delta):
    """2 / (lo + hi) per lane of 1-d t > 0, or NaN where I(1/2) falls short."""
    h_gamma = h(_libm(math.exp, -t))
    target = (1.0 - delta) * LN2

    def shortfall(f):
        return _mi_exponent_form(t, alpha, f, h_gamma) - target

    roots = np.full(t.shape, math.nan)
    attained = ~(shortfall(0.5) < 0.0)
    if not attained.any():
        return roots
    t, alpha, h_gamma, target = (
        a[attained] for a in (t, alpha, h_gamma, target))
    lo = np.zeros(t.shape)
    hi = np.full(t.shape, 0.5)
    # I(f) rises monotonically from I(0) = 0, so this bracket is safe.
    # Every lane starts on [0, 1/2] and halves it exactly, so hi - lo is
    # the same width in all lanes and they stop together.
    width = 0.5
    while width > _F_TOL:
        mid = 0.5 * (lo + hi)
        below = shortfall(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        width *= 0.5
    roots[attained] = 2.0 / (lo + hi)
    return roots


def redundancy_estimate(t_over_tauD, alpha, delta):
    """Linear-in-time redundancy estimate alpha t / (tau_D ln(1/(2 delta ln 2))).

    Broadcasts over arrays of t_over_tauD, alpha and delta; scalar
    arguments give a float. Times below 10 decoherence times get one
    crossover warning per call.
    """
    delta = np.asarray(delta, dtype=float)
    _require((0.0 < delta) & (delta < MAX_DEFICIT), delta,
             f"delta must be in (0, 1/(2 ln 2) = {MAX_DEFICIT:.4f}), got {{}}")
    alpha = _check_alpha(alpha)
    t = _check_time(t_over_tauD)
    early = t < 10.0
    if early.any():
        warnings.warn(
            "redundancy estimate assumes t well beyond the decoherence time; "
            f"t/tau_D = {t[early].flat[0].item()} is in the crossover regime",
            stacklevel=2
        )
    return _result(alpha * t / _libm(math.log, 1.0 / (2.0 * delta * LN2)))


def redundancy_lower_bound(t_over_tauD, delta):
    """Conservative bound (t/tau_D) / ln(1/(delta - Gamma)), alpha = 1 form.

    Requires t > tau_D ln(2/delta) so that the bound's logarithm is
    positive; earlier times carry no guarantee. Broadcasts over arrays of
    t_over_tauD and delta; scalar arguments give a float.
    """
    delta = _check_delta(delta)
    t, delta = np.broadcast_arrays(_check_time(t_over_tauD), delta)
    edge = _libm(math.log, 2.0 / delta)
    early = t <= edge
    if early.any():
        raise ValueError(
            f"bound needs t/tau_D > ln(2/delta) = {edge[early].flat[0]:.4f}, "
            f"got {t[early].flat[0].item()}"
        )
    gamma = _libm(math.exp, -t)
    return _result(t / _libm(math.log, 1.0 / (delta - gamma)))


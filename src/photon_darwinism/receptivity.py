"""Receptivity of the photon environment and the record-production rate.

The receptivity alpha is the fraction of the decoherence-driving overlap
integral that couples the source patch to the rest of the sky:

    alpha = (int_B int_Bbar g2) / (int_B int_S g2),

with g2 the angular weight from sky.g2_weight. alpha = 1 means every
decoherence event also writes an accessible record (point source); alpha
= 0 means the directional states are already fully mixed and record
nothing (isotropic illumination).

Pair integrals of g2 factorize into one-region angular moments, so the
cost is linear in the node count instead of quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sky import (
    FULL_SPHERE,
    AngularMoments,
    SkyRegion,
    angular_moments,
    complement_nodes,
    region_nodes,
    solid_angle,
)

__all__ = [
    "ReceptivityResult",
    "alpha_numeric",
    "alpha_disk",
    "redundancy_rate",
    "receptivity_result",
]


def _pair_integral(a: AngularMoments, b: AngularMoments) -> float:
    """Double integral of g2 over the product of two regions.

    Expanding (1 + (n.m)^2)(a_n - a_m)^2 term by term leaves products of
    single-region moments: scalar moments s[k] of a^k and tensor moments
    t[k] of a^k n_i n_j.
    """
    scalar = a.s[2] * b.s[0] - 2.0 * a.s[1] * b.s[1] + a.s[0] * b.s[2]
    tensor = (
        np.sum(a.t[2] * b.t[0])
        - 2.0 * np.sum(a.t[1] * b.t[1])
        + np.sum(a.t[0] * b.t[2])
    )
    return float(scalar + tensor)


def _merged(a: AngularMoments, b: AngularMoments) -> AngularMoments:
    return AngularMoments(s=a.s + b.s, t=a.t + b.t)


def _alpha_integrals(region: SkyRegion, order: int = 64):
    """(numerator, denominator) of the receptivity ratio by quadrature."""
    pts_b, w_b = region_nodes(region, order)
    pts_c, w_c = complement_nodes(region, order)
    mom_b = angular_moments(pts_b, w_b)
    mom_s = _merged(mom_b, angular_moments(pts_c, w_c))
    denominator = _pair_integral(mom_b, mom_s)
    # The complement pairing is recovered by subtraction, an exact algebraic
    # identity, which pins alpha inside [0, 1] up to rounding.
    numerator = denominator - _pair_integral(mom_b, mom_b)
    return numerator, denominator


def alpha_numeric(region: SkyRegion, order: int = 64) -> float:
    """Receptivity of a sky region, by product quadrature.

    The zero-measure and full-sphere limits do not admit the ratio
    directly and return their analytic values 1 and 0.
    """
    omega = solid_angle(region)
    if region.kind == "point" or omega == 0.0:
        return 1.0
    if region.kind == "isotropic" or omega >= FULL_SPHERE - 1e-12:
        return 0.0
    numerator, denominator = _alpha_integrals(region, order)
    if denominator <= 0.0:
        raise ArithmeticError("degenerate region: overlap integral vanished")
    return min(1.0, max(0.0, numerator / denominator))


def alpha_disk(theta0: float, chi: float) -> float:
    """Closed-form receptivity of a polar-cap source of half-angle theta0
    whose axis is tilted by chi from the separation axis.

    In c = cos(theta0), k = cos(chi):

        alpha = (c + 1) [ -117 c^6 + 295 c^4 - 575 c^2 + 685
                          + 6 k^2 (21 c^6 - 55 c^4 + 135 c^2 + 75) ]
                / [ 32 (40 + 11 c (1 + c)(3 k^2 - 1)) ].

    Equal to 1 at theta0 = 0 for every tilt and 0 at the full sphere.
    """
    if not 0.0 <= theta0 <= math.pi:
        raise ValueError(f"theta0 must be in [0, pi], got {theta0}")
    c = math.cos(theta0)
    k2 = math.cos(chi) ** 2
    numerator = (c + 1.0) * (
        -117.0 * c**6 + 295.0 * c**4 - 575.0 * c**2 + 685.0
        + 6.0 * k2 * (21.0 * c**6 - 55.0 * c**4 + 135.0 * c**2 + 75.0)
    )
    denominator = 32.0 * (40.0 + 11.0 * c * (1.0 + c) * (3.0 * k2 - 1.0))
    return numerator / denominator


def redundancy_rate(alpha: float, tau_D_inv: float) -> float:
    """Rate at which independent records of the superposition appear.

    alpha * tau_D_inv: records cannot outpace decoherence, and vanish
    entirely when the environment has no receptivity.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if tau_D_inv < 0.0:
        raise ValueError(f"rate must be nonnegative, got {tau_D_inv}")
    return alpha * tau_D_inv


@dataclass(frozen=True)
class ReceptivityResult:
    """Receptivity with diagnostics and the derived record rate."""

    alpha: float
    numerator: float
    denominator: float
    tau_R_inv: float | None = None       # 1/s, when an SI rate was supplied
    tau_R_over_TD: float | None = None   # record rate in full-sky rate units


def receptivity_result(region: SkyRegion, order: int = 64,
                       tau_D_inv: float | None = None,
                       rate_ratio: float | None = None) -> ReceptivityResult:
    """Bundle alpha with its integrals and, if rates are given, tau_R."""
    omega = solid_angle(region)
    if region.kind == "point" or omega == 0.0:
        alpha, num, den = 1.0, 0.0, 0.0
    else:
        num, den = _alpha_integrals(region, order)
        if region.kind == "isotropic" or omega >= FULL_SPHERE - 1e-12:
            alpha = 0.0
        else:
            alpha = min(1.0, max(0.0, num / den))
    return ReceptivityResult(
        alpha=alpha,
        numerator=num,
        denominator=den,
        tau_R_inv=None if tau_D_inv is None else redundancy_rate(alpha, tau_D_inv),
        tau_R_over_TD=None if rate_ratio is None else alpha * rate_ratio,
    )

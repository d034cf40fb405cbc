"""Receptivity of the photon environment and the record-production rate.

The receptivity alpha is the fraction of the decoherence-driving overlap
integral that couples the source patch to the rest of the sky:

    alpha = (int_B int_Bbar g2) / (int_B int_S g2),

with g2 the angular weight from sky.g2_weight. alpha = 1 means every
decoherence event also writes an accessible record (point source); alpha
= 0 means the directional states are already fully mixed and record
nothing (isotropic illumination).

Pair integrals of g2 factorize into one-region angular moments, so no
pair of directions is ever summed.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy_kernels import _check_unit
from .radiometry import _check_rate
from .sky import (FULL_SPHERE, AngularMoments, SkyRegion, _check_cap,
                  _custom_cell_size, _region_moment_pair, solid_angle)

__all__ = [
    "alpha_closed_form",
    "alpha_numeric",
    "alpha_disk",
    "redundancy_rate",
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


def _alpha_limit(region: SkyRegion) -> float | None:
    """alpha where the ratio is undefined: 1 at zero measure, 0 at the full sky."""
    omega = solid_angle(region)
    if omega == 0.0:
        return 1.0
    if region.kind == "disk" and omega >= FULL_SPHERE - 1e-12:
        return 0.0
    return None


def alpha_numeric(region: SkyRegion, order: int = 64, moments=None) -> float:
    """Receptivity of a sky region, by product quadrature.

    In order: the zero-measure and full-sky limits (1 and 0), the integrals,
    the tiling rule, the degenerate region and the ratio, clamped to [0, 1]
    against rounding. A custom grid reaches 0 only through its integrals.
    moments, if given, is the report's sky._region_moment_pair(region, order).
    """
    limit = _alpha_limit(region)
    if limit is not None:
        return limit
    mom_b, mom_c = moments or _region_moment_pair(region, order)
    denominator = _pair_integral(
        mom_b, AngularMoments(s=mom_b.s + mom_c.s, t=mom_b.t + mom_c.t))
    numerator = _pair_integral(mom_b, mom_c)
    if denominator > 0.0 and region.kind == "custom":
        # The rest of the sky is only the grid's own cells outside the mask.
        spans = np.multiply(region.grid_mask.shape, _custom_cell_size(region))
        if not np.allclose(spans, (2.0, 2.0 * math.pi), rtol=1e-3, atol=0.0):
            raise ValueError(
                f"custom grid spans {spans[0]:g} in cos(theta) and {spans[1]:g} "
                "in phi; alpha needs a grid that tiles the sphere (2 and 2 pi)")
    if denominator <= 0.0:
        raise ArithmeticError("degenerate region: overlap integral vanished")
    return min(1.0, max(0.0, numerator / denominator))


def alpha_closed_form(region: SkyRegion) -> float | None:
    """Receptivity without quadrature: alpha_disk for a disk (0 for the full
    sky), 1 for a point, and None for a custom grid (see alpha_numeric)."""
    if region.kind == "disk":
        return alpha_disk(region.theta0, region.chi)
    if region.kind == "custom":
        return None
    return _alpha_limit(region)


def alpha_disk(theta0: float, chi: float) -> float:
    """Closed-form receptivity of a polar-cap source of half-angle theta0
    whose axis is tilted by chi from the separation axis.

    In c = cos(theta0), k = cos(chi):

        alpha = (c + 1) [ -117 c^6 + 295 c^4 - 575 c^2 + 685
                          + 6 k^2 (21 c^6 - 55 c^4 + 135 c^2 + 75) ]
                / [ 32 (40 + 11 c (1 + c)(3 k^2 - 1)) ].

    Equal to 1 at theta0 = 0 for every tilt and 0 at the full sphere, and
    clamped to 1 against rounding, which tiny caps push above it.
    """
    _check_cap(theta0, chi)
    c = math.cos(theta0)
    k2 = math.cos(chi) ** 2
    numerator = (c + 1.0) * (
        -117.0 * c**6 + 295.0 * c**4 - 575.0 * c**2 + 685.0
        + 6.0 * k2 * (21.0 * c**6 - 55.0 * c**4 + 135.0 * c**2 + 75.0)
    )
    denominator = 32.0 * (40.0 + 11.0 * c * (1.0 + c) * (3.0 * k2 - 1.0))
    alpha = numerator / denominator
    return alpha if alpha <= 1.0 else 1.0


def redundancy_rate(alpha: float, tau_D_inv: float) -> float:
    """Rate at which independent records of the superposition appear.

    alpha * tau_D_inv: records cannot outpace decoherence, and vanish
    entirely when the environment has no receptivity.
    """
    _check_unit("alpha", alpha)
    _check_rate(tau_D_inv)
    return alpha * tau_D_inv

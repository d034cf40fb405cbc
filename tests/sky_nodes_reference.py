"""Node sets and node moments of sky regions, kept as test references.

The library prices every region from its one-region moment tables
(sky._region_moments) and builds no node array. These functions build the
nodes those tables stand for, a cap panel rotated into place or a custom
grid's cell centers under its mask, and sum their moments node by node,
so the tests can hold the tables to the sums they replace. They reuse the
library's own panel, product-grid, rotation and cell-size helpers, so
their nodes are those of the library's rule, bit for bit.
"""

import math

import numpy as np

from photon_darwinism.sky import (
    _PAIR_I,
    _PAIR_J,
    AngularMoments,
    SkyRegion,
    _check_order,
    _custom_cell_size,
    _panel,
    _product_points,
    _rotation_about_y,
)


def _disk_nodes(theta0: float, chi: float, order: int, cap: bool):
    """Nodes on a polar cap (cap=True) or its complement, rotated by chi;
    none where that panel has zero width."""
    u0 = math.cos(theta0)
    ulo, uhi = (u0, 1.0) if cap else (-1.0, u0)
    if ulo == uhi:
        return np.empty((0, 3)), np.empty(0)
    pts, ww = _panel(ulo, uhi, order)
    if chi != 0.0:
        pts = pts @ _rotation_about_y(chi).T
    return pts, ww


def _custom_nodes(region: SkyRegion, inside: bool):
    """Row-major cell centers in (or out of) the indicator."""
    du, dphi = _custom_cell_size(region)
    centers = _product_points(region.grid_u, region.grid_phi)
    pts = centers[region.grid_mask if inside else ~region.grid_mask]
    return pts, np.full(pts.shape[0], du * dphi)


def region_nodes(region: SkyRegion, order: int = 64):
    """Quadrature nodes and weights covering the region itself."""
    _check_order(order)
    if region.kind == "point":
        raise ValueError("a point region has zero measure; integrate nothing")
    if region.kind == "disk":
        return _disk_nodes(region.theta0, region.chi, order, cap=True)
    return _custom_nodes(region, inside=True)


def complement_nodes(region: SkyRegion, order: int = 64):
    """Quadrature nodes and weights covering the sky minus the region."""
    _check_order(order)
    if region.kind == "point":
        return _panel(-1.0, 1.0, order)
    if region.kind == "disk":
        return _disk_nodes(region.theta0, region.chi, order, cap=False)
    return _custom_nodes(region, inside=False)


def angular_moments(points: np.ndarray, weights: np.ndarray) -> AngularMoments:
    """AngularMoments of the nodes (points (N,3), weights (N,)).

    Only the six distinct products n_i n_j are formed, as the columns of
    one C-ordered (N, 6) array, and each moment is one einsum over it.
    That reduction adds the products in node order, but its rounding
    depends on the memory layout of its operand, so the layout is part of
    the result: a transposed copy or a BLAS product changes the last bits.
    """
    a = points[:, 2]
    prods = np.empty((points.shape[0], 6))
    for c, (i, j) in enumerate(zip(_PAIR_I, _PAIR_J)):
        np.multiply(points[:, i], points[:, j], out=prods[:, c])
    s = np.empty(3)
    t = np.empty((3, 3, 3))
    for k in range(3):
        wk = weights * a**k
        s[k] = np.sum(wk)
        t[k][_PAIR_I, _PAIR_J] = t[k][_PAIR_J, _PAIR_I] = np.einsum(
            "n,nc->c", wk, prods)
    return AngularMoments(s=s, t=t)

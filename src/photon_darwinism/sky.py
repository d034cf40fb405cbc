"""Sky regions and quadrature over the unit sphere.

A region is the patch of sky occupied by the source, seen from the object.
The separation axis of the superposition defines the global z axis; a
tilted disk region is generated in its own polar frame and rotated into
place, which keeps the disk boundary a coordinate line of the quadrature
grid.

Quadrature is a product rule: Gauss-Legendre in cos(theta), uniform
(trapezoid on a periodic interval) in phi. Integrands met here are smooth
once the cos(theta) domain is split at region boundaries, so the rule
converges spectrally.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FULL_SPHERE",
    "SkyRegion",
    "solid_angle",
    "integrate_sphere",
    "g2_weight",
    "region_nodes",
    "complement_nodes",
    "AngularMoments",
    "angular_moments",
    "load_indicator_grid",
]

FULL_SPHERE = 4.0 * math.pi

def _rotation_about_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True)
class SkyRegion:
    """Illumination patch on the sky.

    kind is one of "point", "disk", "custom". A point lies at angle
    acos(cos_theta) from the separation axis. Disks are polar caps
    theta <= theta0 about an axis tilted by chi from the separation axis;
    the isotropic sky is the disk of half-angle pi. Custom regions carry
    a 0/1 indicator sampled on a rectangular (cos_theta, phi) grid of
    cell centers; their boundary is resolved only to first order in the
    grid spacing.
    """

    kind: str
    theta0: float = 0.0
    chi: float = 0.0
    cos_theta: float = 1.0
    grid_u: np.ndarray | None = field(default=None, repr=False)
    grid_phi: np.ndarray | None = field(default=None, repr=False)
    grid_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("point", "disk", "custom"):
            raise ValueError(f"unknown region kind: {self.kind!r}")
        if self.kind == "point" and not -1.0 <= self.cos_theta <= 1.0:
            raise ValueError(f"cos_theta out of range: {self.cos_theta}")
        if self.kind == "disk":
            _check_cap(self.theta0, self.chi)
            if not 0.0 <= self.chi <= math.pi:
                raise ValueError(f"chi must be in [0, pi], got {self.chi}")

    @classmethod
    def point(cls, cos_theta: float = 1.0) -> "SkyRegion":
        return cls(kind="point", cos_theta=cos_theta)

    @classmethod
    def disk(cls, theta0: float, chi: float = 0.0) -> "SkyRegion":
        return cls(kind="disk", theta0=theta0, chi=chi)

    @classmethod
    def isotropic(cls) -> "SkyRegion":
        return cls.disk(math.pi)

    @classmethod
    def custom(cls, grid_u, grid_phi, mask) -> "SkyRegion":
        grid_u = np.asarray(grid_u, dtype=float)
        grid_phi = np.asarray(grid_phi, dtype=float)
        _check_grid_axes(grid_u, grid_phi)
        mask = np.asarray(mask)
        if mask.shape != (grid_u.size, grid_phi.size):
            raise ValueError(
                f"indicator shape {mask.shape} does not match grid "
                f"({grid_u.size} x {grid_phi.size})"
            )
        _check_grid_steps("cos(theta)", grid_u)
        _check_grid_steps("phi", grid_phi)
        return cls(kind="custom", grid_u=grid_u, grid_phi=grid_phi,
                   grid_mask=mask.astype(bool))

    @property
    def solid_angle_sr(self) -> float:
        return solid_angle(self)

    # By value, with np.array_equal for a custom region's grid arrays;
    # the hash leaves those out, so equal regions hash alike.
    def __eq__(self, other):
        if not isinstance(other, SkyRegion):
            return NotImplemented
        return all(np.array_equal(value, getattr(other, name))
                   for name, value in vars(self).items())

    def __hash__(self):
        return hash((self.kind, self.theta0, self.chi, self.cos_theta))


def _check_cap(theta0: float, chi: float) -> None:
    """Reject a cap half-angle outside [0, pi] and a non-finite tilt."""
    if not 0.0 <= theta0 <= math.pi:
        raise ValueError(f"theta0 must be in [0, pi], got {theta0}")
    if not math.isfinite(chi):
        raise ValueError(f"chi must be finite, got {chi}")


def _check_grid_axes(u, phi) -> None:
    """Reject grid cos(theta) values outside [-1, 1] and non-finite phi."""
    bad_u = ~((-1.0 <= u) & (u <= 1.0))
    if bad_u.any():
        raise ValueError(f"grid cos(theta) must be in [-1, 1], got {u[bad_u][0]}")
    bad_phi = ~np.isfinite(phi)
    if bad_phi.any():
        raise ValueError(f"grid phi must be finite, got {phi[bad_phi][0]}")


def _check_grid_steps(name: str, axis: np.ndarray) -> None:
    """Every cell is priced at the mean step, so the centers must ascend in
    steps equal to within 1e-3 of their mean (6-decimal text passes)."""
    steps = np.diff(axis)
    mean = steps.mean() if steps.size else 1.0
    if not (mean > 0.0 and (np.abs(steps - mean) <= 1e-3 * mean).all()):
        raise ValueError(f"grid {name} must ascend in equal steps, got steps "
                         f"from {steps.min()} to {steps.max()}")


def solid_angle(region: SkyRegion) -> float:
    """Solid angle of the region in steradians."""
    if region.kind == "point":
        return 0.0
    if region.kind == "disk":
        return 2.0 * math.pi * (1.0 - math.cos(region.theta0))
    # Custom: Riemann sum of the indicator over its own grid cells.
    du, dphi = _custom_cell_size(region)
    return float(region.grid_mask.sum()) * du * dphi


def _custom_cell_size(region: SkyRegion) -> tuple[float, float]:
    u, phi = region.grid_u, region.grid_phi
    du = (u[-1] - u[0]) / (u.size - 1) if u.size > 1 else 2.0
    dphi = (phi[-1] - phi[0]) / (phi.size - 1) if phi.size > 1 else 2.0 * math.pi
    return du, dphi


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are made read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")


def _product_points(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors on the (u, phi) product grid, shape (u.size, phi.size, 3).

    The trig runs on the 1-d factors only; the grid is filled by
    broadcasting them.
    """
    s = np.sqrt(np.clip(1.0 - u**2, 0.0, None))[:, None]
    pts = np.empty((u.size, phi.size, 3))
    pts[:, :, 0] = s * np.cos(phi)
    pts[:, :, 1] = s * np.sin(phi)
    pts[:, :, 2] = u[:, None]
    return pts


def _panel_axes(ulo: float, uhi: float, order: int):
    """(u, u weights, phi, phi weight) of a cos(theta) panel's product rule:
    Gauss-Legendre in u from a per-process cache, 2*order uniform phi."""
    x, w = _gauss_legendre(order)
    nphi = 2 * order
    u = 0.5 * (uhi - ulo) * x + 0.5 * (uhi + ulo)
    wu = 0.5 * (uhi - ulo) * w
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    return u, wu, phi, 2.0 * math.pi / nphi


def _panel(ulo: float, uhi: float, order: int):
    """Product nodes on a cos(theta) panel: (points (N,3), weights (N,))."""
    u, wu, phi, wphi = _panel_axes(ulo, uhi, order)
    return _product_points(u, phi).reshape(-1, 3), np.repeat(wu, phi.size) * wphi


def integrate_sphere(f, order: int = 64, split_cos=()) -> float:
    """Integrate f over the sphere.

    f takes the (N, 3) array of unit vectors of one panel's nodes and
    returns their N values; it is called once per panel. split_cos lists
    cos(theta) values at which the domain is cut into panels, so
    integrands that kink or jump at a parallel keep spectral accuracy.
    The phi rule uses 2*order uniform points, exact for trigonometric
    polynomials up to that degree. The Gauss-Legendre rule for each order
    is computed once per process and reused.
    """
    _check_order(order)
    splits = [float(s) for s in split_cos]
    for s in splits:
        if not math.isfinite(s):
            raise ValueError(f"split points must be finite, got {s}")
    edges = sorted({-1.0, 1.0, *splits})
    if edges[0] < -1.0 or edges[-1] > 1.0:
        raise ValueError("split points must lie inside [-1, 1]")
    total = 0.0
    # The edges are distinct, so every panel has positive width.
    for ulo, uhi in zip(edges[:-1], edges[1:]):
        pts, ww = _panel(ulo, uhi, order)
        total += float(np.sum(ww * f(pts)))
    return total


def g2_weight(n_hat, m_hat, dx_hat) -> float:
    """Angular weight of the squared off-diagonal scattering overlap.

    (1 + cos^2 theta_nm) (cos theta_dn - cos theta_dm)^2, where theta_nm
    is the angle between the two photon directions and theta_dn, theta_dm
    their angles to the separation axis, all unit vectors. Symmetric under
    n <-> m and zero when the two projections onto that axis coincide.
    """
    n, m, d = (np.asarray(v, dtype=float) for v in (n_hat, m_hat, dx_hat))
    cnm = float(np.dot(n, m))
    an = float(np.dot(n, d))
    am = float(np.dot(m, d))
    return (1.0 + cnm * cnm) * (an - am) ** 2


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
    """Cell centers inside (or outside) the indicator, in row-major order."""
    du, dphi = _custom_cell_size(region)
    mask = region.grid_mask if inside else ~region.grid_mask
    pts = _product_points(region.grid_u, region.grid_phi)[mask]
    ww = np.full(pts.shape[0], du * dphi)
    return pts, ww


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


@dataclass(frozen=True)
class AngularMoments:
    """Moments of a weighted node set against the separation axis z.

    s[k] holds the scalar integrals of a^k and t[k] the 3x3 tensor
    integrals of a^k n_i n_j, where a = n_z, for k = 0, 1, 2. These
    six arrays are all that pair integrals of the g2 weight need, which
    collapses the naive N^2 double sum to O(N) work. Each t[k] is
    symmetric: its six distinct entries are sums over the nodes in node
    order, and the mirrored entries are copies.
    """

    s: np.ndarray   # shape (3,)
    t: np.ndarray   # shape (3, 3, 3)


# The six distinct index pairs (i, j), i <= j, of the symmetric n_i n_j.
_PAIR_I, _PAIR_J = np.triu_indices(3)


def angular_moments(points: np.ndarray, weights: np.ndarray) -> AngularMoments:
    """AngularMoments of the nodes (points (N,3), weights (N,)).

    Only the six distinct products n_i n_j are formed, as the columns of
    one C-ordered (N, 6) array, and each moment is one einsum over it.
    That reduction adds the products in node order, but its rounding
    depends on the memory layout of its operand, so the layout is part of
    the result: a transposed copy or a BLAS product changes the last bits
    (and the printed closed_quadrature_gap).
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


# For each entry of the 4^4 tensor of q = (x, y, z, 1): how many of its
# indices name x, y and z, so that the entry is the moment of x^a y^b z^c.
_XYZ_COUNTS = (np.indices((4,) * 4).reshape(4, -1)[..., None]
               == np.arange(3)).sum(axis=0).T


def _region_moments(region: SkyRegion, order: int, inside: bool) -> AngularMoments:
    """AngularMoments of the region's rule (inside) or its complement's.

    A disk's moments have degree <= 4, so they are summed over its panel's
    rule from two 1-d tables, U[p, q] = sum w_i sin^p(theta_i) u_i^q and
    Phi[a, b] = sum w_phi cos^a(phi_j) sin^b(phi_j) on the rule's own phi
    points (so that order 2, where that rule is not exact, keeps its value):
    x^a y^b z^c has moment Phi[a, b] U[a + b, c]. Other regions take
    angular_moments of their nodes.
    """
    if region.kind != "disk":
        nodes = region_nodes if inside else complement_nodes
        return angular_moments(*nodes(region, order))
    _check_order(order)
    u0 = math.cos(region.theta0)
    ulo, uhi = (u0, 1.0) if inside else (-1.0, u0)
    u, wu, phi, wphi = _panel_axes(ulo, uhi, order)
    sin_theta = np.sqrt(np.clip(1.0 - u**2, 0.0, None))
    table_u = np.einsum("ip,iq->pq", wu[:, None] * np.vander(sin_theta, 5, True),
                        np.vander(u, 5, True))
    table_phi = wphi * np.einsum("ia,ib->ab", np.vander(np.cos(phi), 5, True),
                                 np.vander(np.sin(phi), 5, True))
    a, b, c = _XYZ_COUNTS
    q = (table_phi[a, b] * table_u[a + b, c]).reshape(4, 4, 4, 4)
    rot = _rotation_about_y(region.chi)
    # 1 and the tilted n_z as forms in q; m[k] = sum w n_z^k q q^T, k = 0..2.
    one_and_z = np.array([[0.0, 0.0, 0.0, 1.0], [*rot[2], 0.0]])
    m = np.einsum("abcd,kc,kd->kab", q, one_and_z[[0, 1, 1]],
                  one_and_z[[0, 0, 1]])
    t = rot @ m[:, :3, :3] @ rot.T
    t[:, _PAIR_J, _PAIR_I] = t[:, _PAIR_I, _PAIR_J]
    return AngularMoments(s=m[:, 3, 3], t=t)


def _bad_line(path) -> str | None:
    """Error naming the first grid line that is not 3 numbers, or None."""
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            fields = line.partition("#")[0].split()
            try:
                if n == 1 or not fields or len(list(map(float, fields))) == 3:
                    continue
            except ValueError:
                pass
            return (f"{path}: line {n}: expected three numbers "
                    f"'cos_theta phi value', got '{line.strip()}'")


def load_indicator_grid(path) -> SkyRegion:
    """Read a custom region from a plain-text indicator file.

    Expected layout: a header line "# rows cols" followed by rows*cols
    lines "cos_theta phi value" with value 0 or 1, sampled at the cell
    centers of a rectangular grid in row-major order.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "#":
            raise ValueError(f"{path}: expected header '# rows cols'")
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError:
            rows = cols = 0
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: header '# rows cols' needs positive "
                             f"integers, got {' '.join(header)!r}")
        with warnings.catch_warnings():
            # A header-only file is reported below as a row-count error.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                raise ValueError(_bad_line(path) or f"{path}: {exc}") from exc
    if data.shape != (rows * cols, 3):
        raise ValueError(_bad_line(path) or f"{path}: expected {rows * cols} "
                         f"grid rows, found {data.shape[0]}")
    try:
        _check_grid_axes(data[:, 0], data[:, 1])
        u, phi, val = data.T.reshape(3, rows, cols)
        if not (np.isclose(u, u[:, :1]).all() and np.isclose(phi, phi[:1]).all()):
            raise ValueError("grid is not rectangular")
        if not np.all((val == 0) | (val == 1)):
            raise ValueError("indicator values must be 0 or 1")
        return SkyRegion.custom(u[:, 0], phi[0, :], val)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

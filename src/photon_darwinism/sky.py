"""Sky regions and quadrature over the unit sphere.

A region is the patch of sky occupied by the source, seen from the object.
The separation axis of the superposition defines the global z axis; a
tilted disk region is priced in its own polar frame and its moments are
rotated into place, which keeps the disk boundary a coordinate line of the
quadrature grid.

Quadrature is a product rule: Gauss-Legendre in cos(theta), uniform
(trapezoid on a periodic interval) in phi. Integrands met here are smooth
once the cos(theta) domain is split at region boundaries, so the rule
converges spectrally. A report needs only the angular moments of a
region's rule, which are summed from a row table in cos(theta) and a
column table in phi; integrate_sphere's is the one node set built here.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .entropy_kernels import InputError

__all__ = [
    "FULL_SPHERE",
    "SkyRegion",
    "solid_angle",
    "integrate_sphere",
    "g2_weight",
    "AngularMoments",
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
        bad = mask[(mask != 0) & (mask != 1)]
        if bad.size:
            raise ValueError(f"indicator values must be 0 or 1, got {bad.item(0)!r}")
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
        raise InputError(f"theta0 must be in [0, pi], got {theta0}")
    if not math.isfinite(chi):
        raise InputError(f"chi must be finite, got {chi}")


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
    if not (isinstance(order, (int, np.integer)) and order >= 2):
        raise ValueError(f"quadrature order must be >= 2 and an int, got {order!r}")


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
    nphi = 2 * int(order)  # no wrap-around for a small numpy integer
    u = 0.5 * (uhi - ulo) * x + 0.5 * (uhi + ulo)
    wu = 0.5 * (uhi - ulo) * w
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    return u, wu, phi, 2.0 * math.pi / nphi


def _panel(ulo: float, uhi: float, order: int):
    """Product nodes on a cos(theta) panel: (points (N,3), weights (N,))."""
    u, wu, phi, wphi = _panel_axes(ulo, uhi, order)
    return _product_points(u, phi).reshape(-1, 3), np.repeat(wu, phi.size) * wphi


def integrate_sphere(f, order: int = 64) -> float:
    """Integrate f over the sphere.

    f takes the (N, 3) array of unit vectors of the rule's nodes and
    returns their N values; it is called once. The rule is Gauss-Legendre
    in cos(theta), computed once per order and process, times 2*order
    uniform points in phi, exact for trigonometric polynomials up to that
    degree. A zero integral comes back as +0.0.
    """
    _check_order(order)
    pts, ww = _panel(-1.0, 1.0, order)
    return 0.0 + float(np.sum(ww * f(pts)))


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


@dataclass(frozen=True)
class AngularMoments:
    """Moments of a region's quadrature rule against the separation axis z.

    s[k] holds the scalar integrals of a^k and t[k] the 3x3 tensor
    integrals of a^k n_i n_j, where a = n_z, for k = 0, 1, 2. These
    six arrays are all that pair integrals of the g2 weight need, so a
    pair integral over two regions is a product of one-region moments
    (_region_moments). Each t[k] is symmetric: its six distinct entries
    are computed, and the mirrored entries are copies.
    """

    s: np.ndarray   # shape (3,)
    t: np.ndarray   # shape (3, 3, 3)


# The six distinct index pairs (i, j), i <= j, of the symmetric n_i n_j.
_PAIR_I, _PAIR_J = np.triu_indices(3)


# For each entry of the 4^4 tensor of q = (x, y, z, 1): how many of its
# indices name x, y and z, (a, b, c), so that the entry is the moment of
# x^a y^b z^c, which _region_moments' table holds at (a + b, c, a, b).
_A, _B, _C = (np.indices((4,) * 4).reshape(4, -1)[..., None]
              == np.arange(3)).sum(axis=0).T
_Q_INDEX = (_A + _B, _C, _A, _B)


def _powers(w, x: np.ndarray, y: np.ndarray):
    """(w x_i^p, y_i^q) for p, q = 0..4, the factors of a row or column
    table; w broadcasts against the (n, 5) powers of x."""
    return w * np.vander(x, 5, True), np.vander(y, 5, True)


@functools.lru_cache(maxsize=32)
def _phi_table(order: int) -> np.ndarray:
    """_region_moments' Phi table for this order, computed once, read-only."""
    _, _, phi, wphi = _panel_axes(-1.0, 1.0, order)
    table = wphi * np.einsum("ia,ib->ab", *_powers(1.0, np.cos(phi), np.sin(phi)))
    table.flags.writeable = False
    return table


def _region_moments(region: SkyRegion, order: int, inside: bool) -> AngularMoments:
    """AngularMoments of the region's rule (inside) or its complement's.

    Every rule here is a (u, phi) product grid under a 0/1 mask, and the
    moments have degree <= 4, so x^a y^b z^c has moment
    sum_ij mask_ij Phi_j[a, b] U_i[a + b, c] over a row table
    U_i[p, q] = w_i sin^p(theta_i) u_i^q and a column table
    Phi_j[a, b] = w_phi cos^a(phi_j) sin^b(phi_j). A disk panel is
    unmasked, so its rows and columns are summed first (on the rule's own
    phi points, so that order 2, where that rule is not exact, keeps its
    value; _phi_table keeps the column sum per order); a custom grid's
    rows and columns are its cell centers.
    """
    _check_order(order)
    if region.kind == "disk":
        u0 = math.cos(region.theta0)
        ulo, uhi = (u0, 1.0) if inside else (-1.0, u0)
        if ulo == uhi:  # zero width: the full sky's complement, or a 0-degree cap
            return AngularMoments(s=np.zeros(3), t=np.zeros((3, 3, 3)))
        u, wu, _, _ = _panel_axes(ulo, uhi, order)
        rows = _powers(wu[:, None], np.sqrt(np.clip(1.0 - u**2, 0.0, None)), u)
        table = np.multiply.outer(np.einsum("ip,iq->pq", *rows), _phi_table(order))
    else:
        u, phi = region.grid_u, region.grid_phi
        du, dphi = _custom_cell_size(region)
        rows = _powers(du, np.sqrt(np.clip(1.0 - u**2, 0.0, None)), u)
        cols = _powers(dphi, np.cos(phi), np.sin(phi))
        rows, cols = (np.einsum("ip,iq->ipq", *f).reshape(-1, 25) for f in (rows, cols))
        mask = region.grid_mask if inside else ~region.grid_mask
        table = (rows.T @ (mask @ cols)).reshape((5,) * 4)
    q = table[_Q_INDEX].reshape(4, 4, 4, 4)
    rot = _rotation_about_y(region.chi)
    # 1 and the tilted n_z as forms in q; m[k] = sum w n_z^k q q^T, k = 0..2.
    one_and_z = np.array([[0.0, 0.0, 0.0, 1.0], [*rot[2], 0.0]])
    m = np.einsum("abcd,kc,kd->kab", q, one_and_z[[0, 1, 1]],
                  one_and_z[[0, 0, 1]])
    t = rot @ m[:, :3, :3] @ rot.T
    t[:, _PAIR_J, _PAIR_I] = t[:, _PAIR_I, _PAIR_J]
    return AngularMoments(s=m[:, 3, 3], t=t)


def _region_moment_pair(region: SkyRegion, order: int):
    """(region, complement) moments that one report shares between alpha and
    the rate."""
    return [_region_moments(region, order, inside) for inside in (True, False)]


_GRID_HEADER = re.compile(rb"# ([1-9][0-9]*) ([1-9][0-9]*)\n")
_NOT_A_NUMBER = re.compile(r"[^!-~]|_")  # whitespace, non-ASCII or '_'


def _grid_number(text: str) -> float:
    """A grid file's number as np.loadtxt reads it: float's syntax in
    printable ASCII, without float's '_' digit separators."""
    if _NOT_A_NUMBER.search(text):
        raise ValueError(text)
    return float(text)


def _bad_line(path) -> str | None:
    """Error naming the first grid line that is not 3 numbers, or None."""
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            fields = line.partition("#")[0].split()
            try:
                if n == 1 or not fields or len(list(map(_grid_number, fields))) == 3:
                    continue
            except ValueError:
                pass
            return (f"{path}: line {n}: expected three numbers "
                    f"'cos_theta phi value', got '{line.strip()}'")


def _row_major_grid(raw: bytearray):
    """(u, phi, mask) of a file in README's layout, else None: after the
    header, rows*cols lines "U P F" and a newline, single-spaced, F a bare 0
    or 1, each line of row i starting with its U text and each row repeating
    row 0's P texts. Only those rows + cols texts are parsed, once raw, its
    flags zeroed in place, equals byte for byte the text they rebuild."""
    head = _GRID_HEADER.match(raw)
    text = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(text == 10)  # counted before the header sizes anything
    if not (head and ends.size == 1 + int(head[1]) * int(head[2])):
        return None
    cols, flags = int(head[2]), ends[1:] - 1
    mask = text[flags] - 48
    if mask.max() > 1:
        return None
    text[flags] = 48
    try:
        cells = [ln.split(b" ") for ln in raw[ends[0] + 1:ends[cols]].split(b"\n")]
        tails = [b" %s 0\n" % p for _, p, _ in cells]
        heads = [bytes(raw[at:raw.index(b" ", at)]) for at in ends[:-1:cols] + 1]
        if raw != bytearray().join([head[0], *(h + h.join(tails) for h in heads)]):
            return None
        u, phi = ([_grid_number(t.decode("ascii")) for t in texts]
                  for texts in (heads, [c[1] for c in cells]))
    except ValueError:
        return None
    return np.array(u), np.array(phi), mask.reshape(-1, cols)


def load_indicator_grid(path) -> SkyRegion:
    """Read a custom region from a plain-text indicator file.

    Expected layout: a header line "# rows cols" followed by rows*cols
    lines "cos_theta phi value" with value 0 or 1, sampled at the cell
    centers of a rectangular grid in row-major order. A file in README's
    exact spelling of it skips np.loadtxt, to the same region or error.
    """
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    grid = _row_major_grid(raw)
    if grid is not None:
        try:
            return SkyRegion.custom(*grid)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    # The layout check may have zeroed '1' flags in raw: ASCII either way,
    # so the bytes that are not UTF-8 and their lines stay as read.
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end as text mode ends them: at \n, \r\n or a lone \r.
        line = len(re.split(rb"\r\n?|\n", raw[:exc.start]))
        raise ValueError(f"{path}: line {line}: expected UTF-8 text, got the "
                         f"byte {raw[exc.start]:#04x}") from None
    with open(path, encoding="utf-8") as fh:
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
        return SkyRegion.custom(u[:, 0], phi[0, :], val)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

"""Region moments summed from a row table in u and a column table in phi.

sky._region_moments prices a disk from exact row and column tables and a
custom grid from its cell rows and columns under the mask. Four checks:

* the disk tables equal the node sums of the Gauss-Legendre rule from
  order 3 up, where that rule is exact on these degree-4 integrands:
  within N eps 4 pi, the worst-case rounding of a one-pass sum of
  N = 2 order^2 terms, of math.fsum over the nodes and of the reference
  angular_moments (sky_nodes_reference), whose einsum drifts as the order
  grows (3.6e-13 at order 128); an untilted cap's moments are also within
  1e-14 of their 40-digit closed forms;
* a custom grid's moments, on both sides of its mask, lie within
  1e-14 x 4 pi of math.fsum over its cell centers, up to 200 x 400 cells;
* alpha_numeric and the rate ratio of seeded caps land within 1e-14 of
  the 40-digit alpha_disk and disk_rate;
* disk, isotropic, point and custom alpha, rate and pip reports build no
  node array: they compute no Gauss-Legendre rule.
"""

import contextlib
import io
import math
from dataclasses import astuple

import numpy as np
import pytest
from mpmath import mp

from photon_darwinism import sky
from photon_darwinism.cli import main
from photon_darwinism.radiometry import Scenario, decoherence_rate
from photon_darwinism.receptivity import alpha_numeric
from photon_darwinism.sky import (FULL_SPHERE, SkyRegion, _region_moments,
                                  integrate_sphere)
from sky_nodes_reference import angular_moments, complement_nodes, region_nodes

GRID_TOL = 1e-14 * FULL_SPHERE  # absolute, against math.fsum over the cells
CLOSED_TOL = 1e-14     # absolute, against the 40-digit closed forms
ORDERS = [3, 16, 64, 128]
THETA0 = [0.0, 0.4, math.pi / 2, 2.6, math.pi]
CHI = [0.0, 0.9, math.pi]


def _fsum_moments(points, weights):
    """Moments of the nodes, each entry one math.fsum of their products."""
    a = points[:, 2]
    s = [math.fsum(weights * a**k) for k in range(3)]
    t = [[[math.fsum(weights * a**k * points[:, i] * points[:, j])
           for j in range(3)] for i in range(3)] for k in range(3)]
    return np.array(s), np.array(t)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("inside", [True, False], ids=["cap", "complement"])
def test_tables_match_the_node_sums(order, inside):
    nodes = region_nodes if inside else complement_nodes
    drift = 2 * order**2 * np.finfo(float).eps * FULL_SPHERE
    for theta0 in THETA0:
        for chi in CHI:
            region = SkyRegion.disk(theta0, chi)
            mom = _region_moments(region, inside)
            pts, ww = nodes(region, order)
            for ref_s, ref_t in (_fsum_moments(pts, ww),
                                 astuple(angular_moments(pts, ww))):
                assert np.abs(mom.s - ref_s).max() <= drift
                assert np.abs(mom.t - ref_t).max() <= drift
            assert (mom.t == mom.t.transpose(0, 2, 1)).all()


def _closed_moments(theta0, inside):
    """40-digit moments of an untilted cap (or its complement) over
    u in [lo, hi]: s[k] = 2 pi int u^k, and t[k] is diagonal, with
    pi int (1 - u^2) u^k twice and 2 pi int u^(k+2)."""
    with mp.workdps(40):
        u0 = mp.cos(mp.mpf(theta0))
        lo, hi = (u0, 1) if inside else (-1, u0)

        def power(k):  # int u^k du over [lo, hi]
            return (mp.mpf(hi) ** (k + 1) - mp.mpf(lo) ** (k + 1)) / (k + 1)

        s = [2 * mp.pi * power(k) for k in range(3)]
        t = [np.diag([float(mp.pi * (power(k) - power(k + 2)))] * 2
                     + [float(2 * mp.pi * power(k + 2))]) for k in range(3)]
        return np.array([float(v) for v in s]), np.array(t)


@pytest.mark.parametrize("inside", [True, False], ids=["cap", "complement"])
def test_untilted_tables_match_the_closed_forms(inside):
    for theta0 in THETA0[1:-1]:
        mom = _region_moments(SkyRegion.disk(theta0), inside)
        ref_s, ref_t = _closed_moments(theta0, inside)
        assert np.abs(mom.s - ref_s).max() <= CLOSED_TOL
        assert np.abs(mom.t - ref_t).max() <= CLOSED_TOL


def _grid_regions():
    """Custom grids that tile the sphere: a random 30% mask, a tilted cap
    cut by a wedge, the full grid (an empty complement) and a 200 x 400
    random mask."""
    def axes(rows, cols):
        return (-1.0 + (np.arange(rows) + 0.5) * (2.0 / rows),
                (np.arange(cols) + 0.5) * (2.0 * math.pi / cols))

    rng = np.random.default_rng(25)
    u, phi = axes(30, 60)
    s = np.sqrt(1.0 - u**2)[:, None]
    cap = s * np.cos(phi) * math.sin(0.7) + u[:, None] * math.cos(0.7) > 0.4
    wedge = cap & ~((phi > 1.0) & (phi < 2.0))[None, :]
    return {
        "random": SkyRegion.custom(*axes(20, 40), rng.random((20, 40)) < 0.3),
        "cap-wedge": SkyRegion.custom(u, phi, wedge),
        "full": SkyRegion.custom(*axes(8, 16), np.ones((8, 16), dtype=bool)),
        "200x400": SkyRegion.custom(*axes(200, 400),
                                    rng.random((200, 400)) < 0.3),
    }


@pytest.mark.parametrize("inside", [True, False], ids=["mask", "complement"])
@pytest.mark.parametrize("name", list(_grid_regions()))
def test_grid_tables_match_the_cell_center_sums(name, inside):
    region = _grid_regions()[name]
    mom = _region_moments(region, inside)
    ref_s, ref_t = _fsum_moments(*(region_nodes if inside
                                   else complement_nodes)(region))
    assert np.abs(mom.s - ref_s).max() <= GRID_TOL
    assert np.abs(mom.t - ref_t).max() <= GRID_TOL
    assert (mom.t == mom.t.transpose(0, 2, 1)).all()


@pytest.mark.parametrize("chi", CHI)
def test_zero_width_panels_have_zero_moments(chi):
    for region, inside in ((SkyRegion.disk(0.0, chi), True),
                           (SkyRegion.disk(math.pi, chi), False)):
        mom = _region_moments(region, inside)
        assert not mom.s.any() and not mom.t.any()


def test_order_below_two_is_rejected():
    for order in (1, 0, -3):
        with pytest.raises(ValueError, match="order must be >= 2"):
            integrate_sphere(lambda p: p[:, 2] ** 2, order)


def _alpha_disk(theta0, chi):
    c, k2 = mp.cos(mp.mpf(theta0)), mp.cos(mp.mpf(chi)) ** 2
    numerator = (c + 1) * (-117 * c**6 + 295 * c**4 - 575 * c**2 + 685
                           + 6 * k2 * (21 * c**6 - 55 * c**4 + 135 * c**2 + 75))
    return numerator / (32 * (40 + 11 * c * (1 + c) * (3 * k2 - 1)))


def _disk_rate(theta0, chi):
    c, k2 = mp.cos(mp.mpf(theta0)), mp.cos(mp.mpf(chi)) ** 2
    return (40 - c * (51 - 33 * k2) + c**3 * (11 - 33 * k2)) / 80


def _seeded_caps(n=24):
    rng = np.random.default_rng(23)
    return list(zip(rng.uniform(0.05, math.pi - 0.05, n).tolist(),
                    rng.uniform(0.0, math.pi, n).tolist()))


@pytest.fixture(scope="module")
def closed_forms():
    with mp.workdps(40):
        return [(theta0, chi, _alpha_disk(theta0, chi), _disk_rate(theta0, chi))
                for theta0, chi in _seeded_caps()]


def test_caps_match_the_40_digit_closed_forms(closed_forms):
    for theta0, chi, alpha, rate in closed_forms:
        region = SkyRegion.disk(theta0, chi)
        scn = Scenario(radius_m=1e-6, permittivity=4.0, dx_m=1e-6,
                       temperature_K=2.725, region=region)
        assert abs(alpha_numeric(region) - alpha) <= CLOSED_TOL
        assert abs(decoherence_rate(scn).ratio - rate) <= CLOSED_TOL


def _write_grid(path, region):
    with open(path, "w") as fh:
        fh.write(f"# {region.grid_u.size} {region.grid_phi.size}\n")
        for i, u in enumerate(region.grid_u.tolist()):
            for j, phi in enumerate(region.grid_phi.tolist()):
                fh.write(f"{u!r} {phi!r} {int(region.grid_mask[i, j])}\n")
    return path


@pytest.mark.parametrize("argv", [["alpha"], ["rate"], ["pip", "--times", "1"]],
                         ids=["alpha", "rate", "pip"])
@pytest.mark.parametrize("region", ["disk:60:0", "disk:40:35", "isotropic",
                                    "point:45", "cap-wedge"])
def test_reports_build_no_nodes(argv, region, tmp_path, monkeypatch):
    def no_nodes(*args):
        raise AssertionError("a report built a node array")

    if region == "cap-wedge":
        grid = _write_grid(tmp_path / "grid.txt", _grid_regions()[region])
        region = f"custom:{grid}"
    monkeypatch.setattr(sky, "_gauss_legendre", no_nodes)
    cfg = tmp_path / "scn.cfg"
    cfg.write_text("radius_m = 1e-6\npermittivity = 4\ndx_m = 1e-6\n"
                   f"temperature_K = 2.725\nregion = {region}\n"
                   "irradiance_W_m2 = 1e-5\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", str(cfg), "--order", "64"]) == 0

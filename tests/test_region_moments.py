"""Disk and full-sky moments summed from two 1-d tables.

sky._region_moments prices a disk panel from a Gauss-Legendre table in u
and a uniform-rule table in phi, without building the order x 2*order
nodes. Three checks:

* the tables equal the node sums they replace: within 1e-14 absolute of
  math.fsum over the same nodes at every order, and within N eps 4 pi,
  the worst-case rounding of a one-pass sum of N = 2 order^2 terms, of
  angular_moments, whose einsum drifts as the order grows (2.9e-13 at
  order 128);
* alpha_numeric and the rate ratio of seeded caps land within 1e-14 of
  the 40-digit alpha_disk and disk_rate at every order from 3, where the
  rule is exact on these degree-4 integrands, to the CLI's largest, 1024;
* disk and isotropic alpha and rate reports build no node array.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from mpmath import mp

from photon_darwinism import sky
from photon_darwinism.cli import main
from photon_darwinism.radiometry import Scenario, decoherence_rate
from photon_darwinism.receptivity import alpha_numeric
from photon_darwinism.sky import (
    FULL_SPHERE,
    SkyRegion,
    _region_moments,
    angular_moments,
    complement_nodes,
    region_nodes,
)

FSUM_TOL = 1e-14       # absolute, against math.fsum over the same nodes
CLOSED_TOL = 1e-14     # absolute, against the 40-digit closed forms
ORDERS = [2, 3, 16, 64, 128]
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
    for theta0 in THETA0:
        for chi in CHI:
            region = SkyRegion.disk(theta0, chi)
            mom = _region_moments(region, order, inside)
            pts, ww = nodes(region, order)
            ref_s, ref_t = _fsum_moments(pts, ww)
            assert np.abs(mom.s - ref_s).max() <= FSUM_TOL
            assert np.abs(mom.t - ref_t).max() <= FSUM_TOL
            node = angular_moments(pts, ww)
            drift = 2 * order**2 * np.finfo(float).eps * FULL_SPHERE
            assert np.abs(mom.s - node.s).max() <= drift
            assert np.abs(mom.t - node.t).max() <= drift
            assert (mom.t == mom.t.transpose(0, 2, 1)).all()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("chi", CHI)
def test_zero_width_panels_have_zero_moments(order, chi):
    for region, inside in ((SkyRegion.disk(0.0, chi), True),
                           (SkyRegion.disk(math.pi, chi), False)):
        mom = _region_moments(region, order, inside)
        assert not mom.s.any() and not mom.t.any()


def test_order_below_two_is_rejected():
    for order in (1, 0, -3):
        with pytest.raises(ValueError, match="order must be >= 2"):
            _region_moments(SkyRegion.disk(1.1, 0.3), order, True)


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


@pytest.mark.parametrize("order", [3, 16, 64, 128, 512, 1024])
def test_caps_match_the_40_digit_closed_forms(order, closed_forms):
    for theta0, chi, alpha, rate in closed_forms:
        region = SkyRegion.disk(theta0, chi)
        scn = Scenario(radius_m=1e-6, permittivity=4.0, dx_m=1e-6,
                       temperature_K=2.725, region=region)
        assert abs(alpha_numeric(region, order) - alpha) <= CLOSED_TOL
        assert abs(decoherence_rate(scn, order).ratio - rate) <= CLOSED_TOL


@pytest.mark.parametrize("command", ["alpha", "rate"])
@pytest.mark.parametrize("region", ["disk:60:0", "disk:40:35", "isotropic"])
def test_disk_and_full_sky_reports_build_no_nodes(command, region, tmp_path,
                                                  monkeypatch):
    def no_nodes(*args):
        raise AssertionError("a disk report built a node array")

    monkeypatch.setattr(sky, "_product_points", no_nodes)
    cfg = tmp_path / "scn.cfg"
    cfg.write_text("radius_m = 1e-6\npermittivity = 4\ndx_m = 1e-6\n"
                   f"temperature_K = 2.725\nregion = {region}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(cfg), "--order", "64"]) == 0

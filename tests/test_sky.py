"""Tests for sphere quadrature, sky regions, and the pair-weight moments."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
from numpy.testing import assert_allclose

import photon_darwinism
from photon_darwinism.cli import main
from photon_darwinism.receptivity import alpha_disk
from photon_darwinism.sky import (
    FULL_SPHERE,
    SkyRegion,
    _gauss_legendre,
    g2_weight,
    integrate_sphere,
    load_indicator_grid,
    solid_angle,
)
from sky_nodes_reference import (
    _custom_nodes,
    _panel,
    angular_moments,
    complement_nodes,
    region_nodes,
)


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestPointRegion:
    def test_stores_the_cosine(self):
        assert SkyRegion.point().cos_theta == 1.0
        assert SkyRegion.point(-0.25).cos_theta == -0.25
        assert SkyRegion.point(cos_theta=-1.0).kind == "point"

    @pytest.mark.parametrize("bad", [1.2, -1.0 - 1e-15, math.nan])
    def test_rejects_out_of_range_cosine(self, bad):
        with pytest.raises(ValueError) as info:
            SkyRegion.point(bad)
        assert str(info.value) == f"cos_theta out of range: {bad}"


class TestSolidAngle:
    def test_point_is_zero(self):
        assert solid_angle(SkyRegion.point()) == 0.0

    def test_isotropic_is_full_sphere(self):
        assert solid_angle(SkyRegion.isotropic()) == pytest.approx(FULL_SPHERE)

    @pytest.mark.parametrize("theta0_deg", [1.0, 30.0, 90.0, 150.0, 180.0])
    def test_disk_cap_formula(self, theta0_deg):
        theta0 = math.radians(theta0_deg)
        region = SkyRegion.disk(theta0, chi=0.4)
        expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
        assert region.solid_angle_sr == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("theta0", [1e-150, 1e-8, 1e-6, 1e-3,
                                        math.pi - 1e-6])
    def test_small_caps_and_complements_keep_their_digits(self, theta0):
        # 2 pi (1 - cos(theta0)) read 0 at 1e-8 rad; 4 pi sin^2(theta0/2)
        # has no cancellation.
        with mp.workdps(40):
            want = 4 * mp.pi * mp.sin(mp.mpf(theta0) / 2) ** 2
        got = solid_angle(SkyRegion.disk(theta0, 0.4))
        assert abs(got - want) <= 4 * np.finfo(float).eps * want

    def test_custom_half_sphere(self):
        rows, cols = 40, 80
        u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
        phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
        mask = (u > 0.0)[:, None] & np.ones(cols, dtype=bool)
        region = SkyRegion.custom(u, phi, mask)
        assert region.solid_angle_sr == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_custom_shape_mismatch(self):
        with pytest.raises(ValueError):
            SkyRegion.custom(np.zeros(4), np.zeros(5), np.ones((5, 4)))

    @pytest.mark.parametrize("u, phi, message", [
        ([-1.5, 1.5], [1.0, 2.0], r"cos\(theta\) must be in \[-1, 1\], got -1.5"),
        ([0.0, 1.0 + 1e-12], [1.0, 2.0], r"cos\(theta\) .* got 1.000000000001"),
        ([math.nan, 0.5], [1.0, 2.0], r"cos\(theta\) .* got nan"),
        ([0.0, 0.5], [1.0, math.inf], "phi must be finite, got inf"),
        ([0.0, 0.5], [math.nan, 2.0], "phi must be finite, got nan"),
    ], ids=["u-below", "u-above", "u-nan", "phi-inf", "phi-nan"])
    def test_custom_grid_axes_are_checked(self, u, phi, message):
        with pytest.raises(ValueError, match=message):
            SkyRegion.custom(np.array(u), np.array(phi), np.ones((2, 2)))

    def test_custom_grid_accepts_the_poles(self):
        region = SkyRegion.custom(np.array([-1.0, 1.0]), np.array([0.0, 7.0]),
                                  np.ones((2, 2)))
        assert region.kind == "custom"

    @pytest.mark.parametrize("u, phi, message", [
        # Priced from its endpoints, this grid had solid angle -1.885 sr.
        ([0.95, 0.85, 0.75], [0.5, 2.0, 3.5, 5.0],
         r"grid cos\(theta\) must ascend in equal steps, got steps from "
         r"-0.0999\d* to -0.0999"),
        # ... and this one had du = 0.4 in every row.
        ([0.1, 0.2, 0.9], [0.5, 2.0, 3.5, 5.0],
         r"grid cos\(theta\) must ascend .* from 0.1\d* to 0.7\d*"),
        ([0.5, 0.5, 0.5], [0.5, 2.0, 3.5, 5.0], r"cos\(theta\) .* from 0.0 to 0.0"),
        ([0.1, 0.2, 0.3], [5.0, 3.5, 2.0, 0.5], "grid phi must ascend"),
        ([0.1, 0.2, 0.3], [0.5, 2.0, 3.5, 5.1], "grid phi must ascend"),
    ], ids=["u-descending", "u-uneven", "u-repeated", "phi-descending",
            "phi-uneven"])
    def test_custom_grid_axes_must_ascend_evenly(self, u, phi, message):
        with pytest.raises(ValueError, match=message):
            SkyRegion.custom(u, phi, np.ones((3, 4)))

    @pytest.mark.parametrize("rows, cols", [(200, 400), (1000, 2000)])
    def test_custom_grid_accepts_centers_printed_to_six_decimals(self, rows,
                                                                 cols):
        u = np.round(-1.0 + (np.arange(rows) + 0.5) * (2.0 / rows), 6)
        phi = np.round((np.arange(cols) + 0.5) * (2.0 * math.pi / cols), 6)
        region = SkyRegion.custom(u, phi, np.ones((rows, cols)))
        assert region.solid_angle_sr == pytest.approx(FULL_SPHERE, rel=1e-5)

    def test_custom_grid_accepts_one_element_axes(self):
        assert SkyRegion.custom([0.3], [2.0], [[1]]).solid_angle_sr == \
            pytest.approx(FULL_SPHERE)
        region = SkyRegion.custom([1.0], [1.0, 2.0], [[1, 0]])
        assert region.solid_angle_sr == 2.0


def test_region_kind_is_validated():
    with pytest.raises(ValueError):
        SkyRegion(kind="wedge")
    with pytest.raises(ValueError):
        SkyRegion.disk(-0.1)
    with pytest.raises(ValueError):
        SkyRegion.disk(1.0, chi=4.0)


def test_the_isotropic_sky_is_the_half_angle_pi_disk():
    assert SkyRegion.isotropic() == SkyRegion.disk(math.pi)
    # "isotropic" names a constructor and a scenario spelling, not a kind.
    with pytest.raises(ValueError, match="unknown region kind: 'isotropic'"):
        SkyRegion(kind="isotropic")
    assert hash(SkyRegion.isotropic()) == hash(SkyRegion.disk(math.pi))


def test_custom_regions_compare_and_hash_by_value():
    # == raised "truth value of an array ... is ambiguous" and hash()
    # raised "unhashable type: 'numpy.ndarray'".
    def eye(mask=np.eye(2), phi=(1.0, 2.0)):
        return SkyRegion.custom([-0.5, 0.5], phi, mask)

    assert eye() == eye() and hash(eye()) == hash(eye())
    assert len({eye(), eye(), SkyRegion.disk(1.0)}) == 2
    assert eye() != eye(mask=1 - np.eye(2))
    assert eye() != eye(phi=(1.0, 2.5))
    assert eye() != SkyRegion.custom([-0.5, 0.0, 0.5], [1.0, 2.0],
                                     np.ones((3, 2)))
    assert eye() != SkyRegion.disk(1.0) and eye() != "custom"
    assert SkyRegion.disk(1.0, 0.5) != SkyRegion.disk(1.0, 0.6)


@pytest.mark.parametrize("theta0, chi", [
    (0.3, math.nan), (0.3, math.inf), (math.nan, 0.0), (4.0, 0.0), (-0.1, 0.0),
])
def test_a_disk_names_a_bad_cap_as_its_closed_form_does(theta0, chi):
    with pytest.raises(ValueError) as region_info:
        SkyRegion.disk(theta0, chi)
    with pytest.raises(ValueError) as closed_info:
        alpha_disk(theta0, chi)
    assert str(region_info.value) == str(closed_info.value)


def _ones(p):
    return np.ones(len(p))


def _direction_loop_integrate(f, order):
    """Reference: the per-node loop that handed f one direction at a time,
    each rebuilt from (cos_theta, phi) by the trig of the former
    Direction.vector, accumulated from 0.0 as it was."""
    pts, ww = _panel(-1.0, 1.0, order)
    vals = []
    for p in pts:
        c, phi = float(p[2]), float(math.atan2(p[1], p[0]))
        s = math.sqrt(max(0.0, 1.0 - c**2))
        vals.append(f(np.array([s * math.cos(phi), s * math.sin(phi), c])))
    return 0.0 + float(np.sum(ww * np.array(vals)))


class TestIntegrateSphere:
    def test_polynomial_moments(self):
        assert integrate_sphere(_ones, order=8) == pytest.approx(
            FULL_SPHERE, rel=1e-13
        )
        assert integrate_sphere(lambda p: p[:, 2]**2, order=8) == pytest.approx(
            FULL_SPHERE / 3.0, rel=1e-13
        )
        # sin^2(theta) cos^2(phi) integrates to 4 pi / 3 as well
        val = integrate_sphere(lambda p: p[:, 0]**2, order=8)
        assert val == pytest.approx(FULL_SPHERE / 3.0, rel=1e-13)

    def test_integrand_is_called_once_on_the_rule_nodes(self):
        shapes = []

        def f(p):
            shapes.append(p.shape)
            return _ones(p)
        integrate_sphere(f, order=4)
        assert shapes == [(4 * 2 * 4, 3)]

    @pytest.mark.parametrize("order", [2, 8, 16, 64, 128])
    def test_rate_integrand_matches_the_direction_loop(self, order):
        # The oracle's rate_assembly integrand, in both calling conventions.
        got = integrate_sphere(lambda p: 3.0 + 11.0 * p[:, 2] ** 2, order=order)
        ref = _direction_loop_integrate(lambda v: 3.0 + 11.0 * v[2] ** 2, order)
        assert got == ref

    @pytest.mark.parametrize("order", [2, 3, 16, 17, 64, 201])
    def test_nodes_are_the_reference_panel(self, order):
        # The rule's nodes, bit for bit, and the weights through a sum whose
        # terms differ at every node.
        nodes = []

        def f(p):
            nodes.append(p)
            return np.exp(p[:, 0]) + p[:, 1] ** 3 + p[:, 2]
        got = integrate_sphere(f, order=order)
        pts, ww = _panel(-1.0, 1.0, order)
        assert nodes[0].tobytes() == pts.tobytes()
        assert got.hex() == (0.0 + float(np.sum(ww * f(pts)))).hex()

    def test_order_validation(self):
        with pytest.raises(ValueError):
            integrate_sphere(_ones, order=1)


def _meshgrid_panel(ulo, uhi, order, nphi):
    """Reference panel: trig evaluated on the full (order, nphi) meshgrid."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (uhi - ulo) * x + 0.5 * (uhi + ulo)
    wu = 0.5 * (uhi - ulo) * w
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    wphi = 2.0 * math.pi / nphi
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    ww = np.repeat(wu, nphi) * wphi
    s = np.sqrt(np.clip(1.0 - uu**2, 0.0, None))
    pts = np.stack(
        [s * np.cos(pp), s * np.sin(pp), uu], axis=-1
    ).reshape(-1, 3)
    return pts, ww


def _panel_cases():
    edges = [-1.0, -0.999, math.cos(math.radians(179.5)), -0.3, 0.0,
             math.cos(math.radians(60.0)), 0.9999, 1.0]
    cases = [(lo, hi, order)
             for lo, hi in zip(edges[:-1], edges[1:])
             for order in (2, 3, 16, 17, 64, 128)]
    cases += [(-1.0, 1.0, order) for order in (5, 32, 100, 201)]
    rng = np.random.default_rng(20)
    for _ in range(40):
        lo, hi = np.sort(rng.uniform(-1.0, 1.0, size=2))
        cases.append((float(lo), float(hi), int(rng.integers(2, 160))))
    return cases


class TestPanel:
    @pytest.mark.parametrize("ulo,uhi,order", _panel_cases())
    def test_matches_the_meshgrid_construction_bit_for_bit(self, ulo, uhi,
                                                           order):
        pts, ww = _panel(ulo, uhi, order)
        ref_pts, ref_ww = _meshgrid_panel(ulo, uhi, order, 2 * order)
        assert pts.shape == ref_pts.shape and ww.shape == ref_ww.shape
        assert pts.tobytes() == ref_pts.tobytes()
        assert ww.tobytes() == ref_ww.tobytes()

    def test_cached_rule_is_shared_and_read_only(self):
        x, w = _gauss_legendre(16)
        assert _gauss_legendre(16)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert x.tobytes() == ref_x.tobytes()
        assert w.tobytes() == ref_w.tobytes()

    @pytest.mark.parametrize("argv", [["alpha"], ["rate"]], ids=["alpha", "rate"])
    @pytest.mark.parametrize("order", ["2", "64"])
    def test_a_disk_report_computes_no_rule(self, argv, order, tmp_path,
                                            monkeypatch):
        # A disk's tables are exact integrals, so --order computes no rule.
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        _gauss_legendre.cache_clear()
        cfg = tmp_path / "disk.cfg"
        cfg.write_text("radius_m = 1e-6\npermittivity = 4\ndx_m = 1e-6\n"
                       "temperature_K = 2.725\nregion = disk:30:20\n")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--config", str(cfg),
                             "--order", order]) == 0
        finally:
            _gauss_legendre.cache_clear()
        assert calls == []


class TestG2Weight:
    def test_symmetry_in_the_photon_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, m, d = (_random_direction(rng) for _ in range(3))
            assert g2_weight(n, m, d) == pytest.approx(g2_weight(m, n, d), rel=1e-14)

    def test_zero_when_projections_coincide(self):
        s = math.sqrt(1.0 - 0.3**2)
        n = np.array([s, 0.0, 0.3])
        m = np.array([-s, 0.0, 0.3])
        assert g2_weight(n, m, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_back_to_back_along_axis(self):
        z = np.array([0.0, 0.0, 1.0])
        assert g2_weight(z, -z, z) == pytest.approx(8.0, rel=1e-15)

    def test_matches_the_polar_angle_form(self):
        (c1, p1), (c2, p2) = (0.2, 1.0), (-0.7, 2.5)
        s1, s2 = math.sqrt(1.0 - c1 * c1), math.sqrt(1.0 - c2 * c2)
        n = [s1 * math.cos(p1), s1 * math.sin(p1), c1]
        m = (s2 * math.cos(p2), s2 * math.sin(p2), c2)
        cnm = s1 * s2 * math.cos(p1 - p2) + c1 * c2
        assert g2_weight(n, m, [0.0, 0.0, 1.0]) == pytest.approx(
            (1.0 + cnm * cnm) * (c1 - c2) ** 2, rel=1e-14
        )

    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0])
    def test_single_direction_pair_integral(self, c):
        # Integrating the weight over one photon direction gives
        # (8 pi / 15) (3 + 11 cos^2 theta) for the other; checked here
        # against the quadrature directly.
        n = np.array([math.sqrt(1.0 - c * c), 0.0, c])
        z = np.array([0.0, 0.0, 1.0])
        val = integrate_sphere(
            lambda p: np.array([g2_weight(n, m, z) for m in p]), order=8)
        assert val == pytest.approx(8.0 * math.pi / 15.0 * (3.0 + 11.0 * c * c),
                                    rel=1e-12)


class TestNodes:
    """The reference node sets (sky_nodes_reference) tile the sphere."""

    def test_disk_partition_of_the_sphere(self):
        region = SkyRegion.disk(math.radians(72.0), chi=math.radians(33.0))
        pts_in, w_in = region_nodes(region, order=32)
        pts_out, w_out = complement_nodes(region, order=32)
        assert w_in.sum() == pytest.approx(region.solid_angle_sr, rel=1e-13)
        assert w_out.sum() == pytest.approx(
            FULL_SPHERE - region.solid_angle_sr, rel=1e-13
        )
        assert_allclose(np.linalg.norm(pts_in, axis=1), 1.0, atol=1e-12)
        assert_allclose(np.linalg.norm(pts_out, axis=1), 1.0, atol=1e-12)

    def test_tilted_cap_centroid_sits_on_the_tilt_axis(self):
        chi = math.radians(40.0)
        pts, ww = region_nodes(SkyRegion.disk(math.radians(20.0), chi), order=24)
        centroid = (ww[:, None] * pts).sum(axis=0)
        centroid /= np.linalg.norm(centroid)
        assert_allclose(centroid, [math.sin(chi), 0.0, math.cos(chi)], atol=1e-12)

    def test_region_and_complement_cover_four_pi(self):
        for region in (SkyRegion.disk(1.1, 0.3), SkyRegion.isotropic()):
            _, w_in = region_nodes(region, order=16)
            _, w_out = complement_nodes(region, order=16)
            assert w_in.sum() + w_out.sum() == pytest.approx(FULL_SPHERE,
                                                             rel=1e-13)

    def test_point_region_has_no_interior_nodes(self):
        with pytest.raises(ValueError):
            region_nodes(SkyRegion.point())
        _, ww = complement_nodes(SkyRegion.point(), order=16)
        assert ww.sum() == pytest.approx(FULL_SPHERE, rel=1e-13)

    @pytest.mark.parametrize("nodes", [region_nodes, complement_nodes])
    @pytest.mark.parametrize("region", [
        SkyRegion.disk(1.1, 0.3), SkyRegion.isotropic(), SkyRegion.point(),
    ], ids=["disk", "isotropic", "point"])
    def test_order_below_two_is_rejected(self, nodes, region):
        # A one-node rule used to give a full-sky rate ratio of 0.45.
        for order in (1, 0, -3):
            with pytest.raises(ValueError, match="order must be >= 2"):
                nodes(region, order=order)

    def test_custom_nodes_split_the_grid(self):
        rows, cols = 10, 12
        u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
        phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
        rng = np.random.default_rng(3)
        mask = rng.random((rows, cols)) < 0.4
        region = SkyRegion.custom(u, phi, mask)
        _, w_in = region_nodes(region)
        _, w_out = complement_nodes(region)
        assert w_in.size + w_out.size == rows * cols
        assert w_in.sum() + w_out.sum() == pytest.approx(FULL_SPHERE, rel=1e-12)


def test_angular_moments_match_direct_sums():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ww = rng.random(40)
    mom = angular_moments(pts, ww)
    a = pts[:, 2]
    for k in range(3):
        assert mom.s[k] == pytest.approx(float(np.sum(ww * a**k)), rel=1e-13)
        direct = np.einsum("n,ni,nj->ij", ww * a**k, pts, pts)
        assert_allclose(mom.t[k], direct, rtol=1e-12, atol=1e-14)


def _outer_angular_moments(points, weights):
    """Reference moments: the full (N, 3, 3) outer product, by broadcasting."""
    a = points[:, 2]
    s = np.empty(3)
    t = np.empty((3, 3, 3))
    outer = points[:, :, None] * points[:, None, :]
    for k in range(3):
        wk = weights * a**k
        s[k] = np.sum(wk)
        t[k] = np.einsum("n,nij->ij", wk, outer)
    return s, t


def _meshgrid_custom_nodes(region, inside):
    """Reference custom nodes: trig on the masked (rows, cols) meshgrid."""
    u, phi = region.grid_u, region.grid_phi
    du = (u[-1] - u[0]) / (u.size - 1) if u.size > 1 else 2.0
    dphi = (phi[-1] - phi[0]) / (phi.size - 1) if phi.size > 1 else 2.0 * math.pi
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    mask = region.grid_mask if inside else ~region.grid_mask
    uu, pp = uu[mask], pp[mask]
    s = np.sqrt(np.clip(1.0 - uu**2, 0.0, None))
    pts = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1)
    return pts, np.full(pts.shape[0], du * dphi)


def _custom_regions():
    rng = np.random.default_rng(23)
    rows, cols = 50, 100
    u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
    phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
    poles = np.linspace(-1.0, 1.0, rows)
    return {
        "1x1-in": SkyRegion.custom([0.5], [1.0], [[1]]),
        "1x1-out": SkyRegion.custom([-0.3], [4.0], [[0]]),
        "50x100-random": SkyRegion.custom(u, phi, rng.random((rows, cols)) < 0.4),
        "50x100-cap": SkyRegion.custom(
            u, phi, (u > 0.7)[:, None] & np.ones(cols, dtype=bool)),
        "50x100-poles": SkyRegion.custom(poles, phi,
                                         rng.random((rows, cols)) < 0.6),
    }


def _assert_same_moments(pts, ww):
    mom = angular_moments(pts, ww)
    ref_s, ref_t = _outer_angular_moments(pts, ww)
    assert mom.s.tobytes() == ref_s.tobytes()
    assert mom.t.tobytes() == ref_t.tobytes()


class TestMomentParity:
    """The reference six-product moments and 1-d-trig custom nodes equal
    the broadcast-outer and meshgrid constructions they replaced, bit for
    bit."""

    @pytest.mark.parametrize("order", [2, 16, 64, 128])
    @pytest.mark.parametrize("theta0, chi", [
        (0.01, 0.0), (math.radians(30.0), math.radians(20.0)),
        (1.0, 1.3), (math.pi / 2, math.pi / 2), (2.5, 2.9), (0.7, math.pi),
    ])
    @pytest.mark.parametrize("nodes", [region_nodes, complement_nodes])
    def test_disk_caps_and_complements(self, nodes, theta0, chi, order):
        pts, ww = nodes(SkyRegion.disk(theta0, chi), order)
        _assert_same_moments(pts, ww)

    @pytest.mark.parametrize("order", [2, 16, 64, 128])
    def test_isotropic_sphere_and_its_empty_complement(self, order):
        pts, ww = region_nodes(SkyRegion.isotropic(), order)
        _assert_same_moments(pts, ww)
        pts, ww = complement_nodes(SkyRegion.isotropic(), order)
        assert pts.shape == (0, 3)
        _assert_same_moments(pts, ww)
        mom = angular_moments(pts, ww)
        assert not mom.s.any() and not mom.t.any()

    @pytest.mark.parametrize("order", [2, 16, 64])
    def test_zero_angle_cap_has_no_nodes(self, order):
        for chi in (0.0, 0.4):
            pts, ww = region_nodes(SkyRegion.disk(0.0, chi), order)
            assert pts.shape == (0, 3) and ww.shape == (0,)
        _, ww = complement_nodes(SkyRegion.disk(0.0), order)
        assert ww.sum() == pytest.approx(FULL_SPHERE, rel=1e-13)

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    @pytest.mark.parametrize("name", list(_custom_regions()))
    def test_custom_nodes_and_their_moments(self, name, inside):
        region = _custom_regions()[name]
        pts, ww = _custom_nodes(region, inside)
        ref_pts, ref_ww = _meshgrid_custom_nodes(region, inside)
        assert pts.shape == ref_pts.shape and ww.shape == ref_ww.shape
        assert pts.tobytes() == ref_pts.tobytes()
        assert ww.tobytes() == ref_ww.tobytes()
        _assert_same_moments(pts, ww)


class TestIndicatorFiles:
    @staticmethod
    def _write(path, rows, cols, mask):
        u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
        phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
        with open(path, "w") as fh:
            fh.write(f"# {rows} {cols}\n")
            for i in range(rows):
                for j in range(cols):
                    fh.write(f"{float(u[i])!r} {float(phi[j])!r} "
                             f"{int(mask[i, j])}\n")

    def test_roundtrip(self, tmp_path):
        rows, cols = 6, 8
        rng = np.random.default_rng(9)
        mask = rng.random((rows, cols)) < 0.5
        path = tmp_path / "patch.txt"
        self._write(path, rows, cols, mask)
        region = load_indicator_grid(path)
        assert region.kind == "custom"
        assert np.array_equal(region.grid_mask, mask)
        cell = (2.0 / rows) * (2.0 * math.pi / cols)
        assert region.solid_angle_sr == pytest.approx(mask.sum() * cell, rel=1e-12)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 4\n")
        with pytest.raises(ValueError, match="header"):
            load_indicator_grid(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("# 2 2\n0.5 1.0 1\n0.5 2.0 0\n")
        with pytest.raises(ValueError, match="grid rows"):
            load_indicator_grid(path)

    def test_one_by_one_grid(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("# 1 1\n0.5 1.0 1\n")
        region = load_indicator_grid(path)
        assert region.grid_u.tolist() == [0.5]
        assert region.grid_phi.tolist() == [1.0]
        assert region.grid_mask.tolist() == [[True]]

    @pytest.mark.parametrize("header", ["# 0 5", "# 2 0", "# -1 2", "# 2 x",
                                        "# 1.5 2"])
    def test_header_needs_positive_integers(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError) as info:
            load_indicator_grid(path)
        assert str(info.value) == (f"{path}: header '# rows cols' needs "
                                   f"positive integers, got {header!r}")

    @pytest.mark.parametrize("bad, message", [
        ("1.5", "grid cos(theta) must be in [-1, 1], got 1.5"),
        ("nan", "grid cos(theta) must be in [-1, 1], got nan"),
    ], ids=["above", "nan"])
    def test_cos_theta_is_checked_before_the_grid_shape(self, tmp_path, bad,
                                                         message):
        path = tmp_path / "u.txt"
        path.write_text(f"# 2 2\n-0.5 1.0 1\n-0.5 2.0 1\n"
                        f"{bad} 1.0 1\n{bad} 2.0 1\n")
        with pytest.raises(ValueError) as info:
            load_indicator_grid(path)
        assert str(info.value) == f"{path}: {message}"

    def test_non_finite_phi_is_named(self, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text("# 1 2\n0.0 1.0 1\n0.0 inf 1\n")
        with pytest.raises(ValueError) as info:
            load_indicator_grid(path)
        assert str(info.value) == f"{path}: grid phi must be finite, got inf"

    def test_rate_rejects_a_grid_beyond_the_poles(self, tmp_path, capsys):
        grid = tmp_path / "wide.txt"
        grid.write_text("# 2 2\n-1.5 1.0 1\n-1.5 2.0 1\n1.5 1.0 1\n"
                        "1.5 2.0 1\n")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
                       f"temperature_K = 2.725\nregion = custom:{grid}\n")
        assert main(["rate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: {cfg}: region: {grid}: grid cos(theta) must be "
            "in [-1, 1], got -1.5\n")

    def test_rate_rejects_a_descending_grid(self, tmp_path, capsys):
        grid = tmp_path / "down.txt"
        grid.write_text("# 2 2\n0.5 1.0 1\n0.5 2.0 1\n-0.5 1.0 1\n"
                        "-0.5 2.0 1\n")
        cfg = tmp_path / "down.cfg"
        cfg.write_text("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
                       f"temperature_K = 2.725\nregion = custom:{grid}\n")
        assert main(["rate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: {cfg}: region: {grid}: grid cos(theta) must ascend in "
            "equal steps, got steps from -1.0 to -1.0\n")

    def test_header_only_file_prints_only_the_config_error(self, tmp_path):
        # A fresh interpreter showing every warning, so a leaked numpy
        # warning would reach stderr ahead of the error line.
        grid = tmp_path / "empty.txt"
        grid.write_text("# 1 1\n")
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
                       f"temperature_K = 2.725\nregion = custom:{grid}\n")
        src = str(Path(photon_darwinism.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        result = subprocess.run(
            [sys.executable, "-W", "always", "-m", "photon_darwinism.cli",
             "rate", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"config error: {cfg}: region: {grid}: expected 1 grid rows, "
            "found 0\n")

    @pytest.mark.parametrize("text, line, got", [
        ("# 1 2\n1.0 abc 0\n1.0 2.0 0\n", 2, "1.0 abc 0"),
        ("# 1 2\n1.0 1.0 0\n# a comment\n\n1.0 2.0\n", 5, "1.0 2.0"),
        ("# 1 2\n1.0 1.0\n1.0 2.0\n", 2, "1.0 1.0"),
    ], ids=["not-a-number", "short-row", "two-columns"])
    def test_rate_names_the_first_bad_grid_line(self, tmp_path, capsys,
                                                text, line, got):
        grid = tmp_path / "bad.txt"
        grid.write_text(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
                       f"temperature_K = 2.725\nregion = custom:{grid}\n")
        assert main(["rate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: {cfg}: region: {grid}: line {line}: expected "
            f"three numbers 'cos_theta phi value', got '{got}'\n")

    @pytest.mark.parametrize("number", ["-0_0.75", "-\u0660.75"],
                             ids=["underscore", "arabic-indic-digit"])
    def test_a_number_loadtxt_refuses_names_its_line(self, tmp_path, number):
        # Python float reads both as -0.75; np.loadtxt refuses them.
        path = tmp_path / "under.txt"
        self._write(path, 4, 8, np.ones((4, 8)))
        text = path.read_text()
        assert text.startswith("# 4 8\n-0.75 0.39269908169872414 1\n")
        path.write_text(text.replace("-0.75", number, 1))
        with pytest.raises(ValueError) as info:
            load_indicator_grid(path)
        assert str(info.value) == (
            f"{path}: line 2: expected three numbers 'cos_theta phi value', "
            f"got '{number} 0.39269908169872414 1'")

    @pytest.mark.parametrize("text, line", [
        (b"# 1 2\n0.0 1.0 1\n0.0 2.0 \xff\n", 3),
        (b"# 1 2\xff\n0.0 1.0 1\n0.0 2.0 1\n", 1),
        (b"# 1 2\r\n0.0 1.0 1\r0.0 2.0 \xff\r", 3),
        # In README's layout but for the byte, so the layout reader has
        # zeroed the flags before it refuses the file.
        (b"# 1 2\n0.0 1.0 1\n0.0 2.\xff 1\n", 3),
    ], ids=["flag", "header", "cr-line-ends", "number-in-layout"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys,
                                                    text, line):
        grid = tmp_path / "bytes.txt"
        grid.write_bytes(text)
        with pytest.raises(ValueError) as info:
            load_indicator_grid(grid)
        assert str(info.value) == (
            f"{grid}: line {line}: expected UTF-8 text, got the byte 0xff")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
                       f"temperature_K = 2.725\nregion = custom:{grid}\n")
        assert main(["rate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {cfg}: region: {info.value}\n"

    def test_non_binary_values(self, tmp_path):
        path = tmp_path / "frac.txt"
        lines = ["# 1 2", "0.0 1.0 0.5", "0.0 2.0 1"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="0 or 1"):
            load_indicator_grid(path)

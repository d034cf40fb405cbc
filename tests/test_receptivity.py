"""Tests for the receptivity fraction alpha and its closed disk form."""

import math
import re

import numpy as np
import pytest

from photon_darwinism import receptivity
from photon_darwinism.receptivity import (
    alpha_closed_form,
    alpha_disk,
    alpha_numeric,
    redundancy_rate,
)
from photon_darwinism.sky import SkyRegion

# Frozen once from a 50-digit evaluation of the closed form. Values are
# alpha for a disk of half-angle theta0 tilted by chi, both in degrees.
ALPHA_GRID = {
    (10, 0): 0.9999996879, (10, 45): 0.9999004618, (10, 90): 0.9994552439,
    (30, 0): 0.9997897228, (30, 45): 0.9934078616, (30, 90): 0.9717118573,
    (50, 0): 0.9959975698, (50, 45): 0.9617279004, (50, 90): 0.8853862432,
    (70, 0): 0.9727575935, (70, 45): 0.8795093502, (70, 90): 0.7458495643,
    (90, 0): 0.88671875, (90, 45): 0.7109375, (90, 90): 0.53515625,
    (110, 0): 0.6817132135, (110, 45): 0.4730684177, (110, 90): 0.3009030169,
    (130, 0): 0.3918372419, (130, 45): 0.2472915264, (130, 90): 0.1285008024,
    (150, 0): 0.1448240221, (150, 45): 0.08858504172, (150, 90): 0.0375628582,
    (170, 0): 0.01601483752, (170, 45): 0.009730515545, (170, 90): 0.003523444312,
}


class TestAlphaDisk:
    def test_frozen_grid(self):
        for (theta0, chi), expected in ALPHA_GRID.items():
            got = alpha_disk(math.radians(theta0), math.radians(chi))
            assert got == pytest.approx(expected, rel=2e-9), (theta0, chi)

    def test_hemisphere_rationals(self):
        # Aligned and equatorial hemispheres come out as exact rationals.
        assert alpha_disk(math.pi / 2.0, 0.0) == pytest.approx(1135.0 / 1280.0,
                                                               rel=1e-14)
        assert alpha_disk(math.pi / 2.0, math.pi / 2.0) == pytest.approx(
            685.0 / 1280.0, rel=1e-14
        )

    def test_limits(self):
        assert alpha_disk(math.pi, 0.0) == pytest.approx(0.0, abs=1e-12)
        # a vanishing cap is fully receptive
        assert alpha_disk(1e-4, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_mirror_symmetry_in_tilt(self):
        # Reflecting the tilt through the equator leaves alpha unchanged.
        for theta0_deg in (25.0, 70.0, 140.0):
            for chi_deg in (15.0, 60.0, 85.0):
                a = alpha_disk(math.radians(theta0_deg), math.radians(chi_deg))
                b = alpha_disk(math.radians(theta0_deg),
                               math.radians(180.0 - chi_deg))
                assert a == pytest.approx(b, rel=1e-12)

    def test_any_finite_tilt_is_accepted(self):
        # A chi sweep may leave [0, pi]; the form depends on cos^2(chi) only.
        for chi in (-0.4, 4.0, 10.0):
            assert alpha_disk(1.0, chi) == pytest.approx(
                alpha_disk(1.0, abs(chi) % math.pi), rel=1e-12)

    def test_tiny_caps_never_exceed_one(self):
        # Unclamped, 1,122 of these 8,000 caps rounded to 1.0000000000000004.
        caps = np.geomspace(1e-8, 0.1, 2000)
        for chi in (0.0, 0.5, math.pi / 2.0, math.pi):
            assert max(alpha_disk(theta0, chi) for theta0 in caps) <= 1.0

    def test_monotone_shrinks_with_aperture(self):
        vals = [alpha_disk(math.radians(t), 0.3) for t in np.linspace(1, 179, 90)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("region,expected", [
        (SkyRegion.disk(math.radians(40.0), math.radians(35.0)),
         alpha_disk(math.radians(40.0), math.radians(35.0))),
        (SkyRegion.point(), 1.0),
        (SkyRegion.isotropic(), 0.0),
        (SkyRegion.custom(np.array([-0.5, 0.5]), np.array([1.0, 2.0]),
                          np.eye(2, dtype=bool)), None),
        (SkyRegion.custom(np.array([-0.5, 0.5]), np.array([1.0, 2.0]),
                          np.zeros((2, 2), dtype=bool)), None),
    ], ids=["disk", "point", "isotropic", "custom", "custom-empty"])
    def test_closed_form_by_region_kind(self, region, expected):
        assert alpha_closed_form(region) == expected


class TestAlphaNumeric:
    def test_matches_closed_form(self):
        for theta0_deg, chi_deg in ((30.0, 0.0), (70.0, 45.0), (150.0, 90.0)):
            region = SkyRegion.disk(math.radians(theta0_deg), math.radians(chi_deg))
            closed = alpha_disk(math.radians(theta0_deg), math.radians(chi_deg))
            assert alpha_numeric(region) == pytest.approx(closed, abs=1e-10)

    def test_point_region_is_fully_receptive(self):
        assert alpha_numeric(SkyRegion.point()) == 1.0

    def test_isotropic_region_has_nothing_left_to_learn(self, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("the full-sky limit needs no quadrature")
        monkeypatch.setattr(receptivity, "_region_moment_pair", no_nodes)
        assert alpha_numeric(SkyRegion.isotropic()) == 0.0

    def test_custom_half_sphere(self):
        rows, cols = 100, 200
        u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
        phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
        mask = (u > 0.0)[:, None] & np.ones(cols, dtype=bool)
        region = SkyRegion.custom(u, phi, mask)
        # midpoint cells converge at second order; 100 rows leaves ~3e-5
        assert alpha_numeric(region) == pytest.approx(1135.0 / 1280.0, abs=2e-4)


def test_redundancy_rate():
    assert redundancy_rate(0.5, 4.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\], got 1.5$"):
        redundancy_rate(1.5, 1.0)
    with pytest.raises(ValueError):
        redundancy_rate(0.5, -1.0)


def test_degenerate_grid_raises():
    # One row of cells at the pole: every node has the same n_z, so the
    # overlap integral vanishes although the grid has solid angle 2 sr.
    region = SkyRegion.custom([1.0], [1.0, 2.0], [[1, 0]])
    with pytest.raises(ArithmeticError, match="degenerate region"):
        alpha_numeric(region)


# A fully lit 3 x 4 band over cos(theta) in [0.7, 1]: the grid has no cells
# outside its mask, so it cannot stand for the rest of the sky.
BAND = SkyRegion.custom([0.75, 0.85, 0.95],
                        (np.arange(4) + 0.5) * (math.pi / 2.0),
                        np.ones((3, 4), dtype=bool))
# A full sky of rows but only the azimuths in [0, pi], lit at the top.
HALF_PHI = SkyRegion.custom(-1.0 + (np.arange(4) + 0.5) * 0.5,
                            (np.arange(4) + 0.5) * (math.pi / 4.0),
                            (np.arange(4) == 3)[:, None] & np.ones(4, bool))
# A fully lit 2 x 4 grid at u = -1, 1 that prices 24 sr, more than the
# sphere; it was taken for the full sky and given alpha = 0.
OVER_SPHERE = SkyRegion.custom([-1.0, 1.0], [0.5, 2.0, 3.5, 5.0],
                               np.ones((2, 4), dtype=bool))


@pytest.mark.parametrize("region,spans", [
    (BAND, "0.3 in cos(theta) and 6.28319 in phi"),
    (HALF_PHI, "2 in cos(theta) and 3.14159 in phi"),
    (OVER_SPHERE, "4 in cos(theta) and 6 in phi"),
], ids=["band", "half-phi", "over-sphere"])
def test_grid_that_does_not_tile_the_sphere_raises(region, spans):
    with pytest.raises(ValueError, match=(
            rf"^custom grid spans {re.escape(spans)}; alpha needs a grid "
            r"that tiles the sphere \(2 and 2 pi\)$")):
        alpha_numeric(region)


@pytest.mark.parametrize("decimals", [None, 6], ids=["exact", "6-decimal"])
def test_fully_lit_grid_that_tiles_the_sphere_is_not_receptive(decimals):
    # No full-sky limit applies to a custom grid: its complement moments are
    # zeros, so the numerator is exactly 0 and the grid passes the tiling rule.
    u = -1.0 + (np.arange(40) + 0.5) * (2.0 / 40)
    phi = (np.arange(80) + 0.5) * (2.0 * math.pi / 80)
    if decimals is not None:
        u, phi = np.round(u, decimals), np.round(phi, decimals)
    region = SkyRegion.custom(u, phi, np.ones((40, 80), dtype=bool))
    assert alpha_numeric(region) == 0.0

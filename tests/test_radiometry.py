"""Tests for blackbody radiometry, scenario handling, and scattering rates."""

import dataclasses
import math
import re

import numpy as np
import pytest

from photon_darwinism.radiometry import (
    BOLTZMANN,
    HBAR,
    SPEED_OF_LIGHT,
    ZETA_3,
    ZETA_9,
    Scenario,
    ScenarioError,
    decoherence_factor,
    decoherence_rate,
    disk_rate,
    effective_radius,
    isotropic_rate,
    parse_scenario,
    patch_irradiance,
    photon_number_density,
    point_source_rate,
)
from photon_darwinism.information import (
    redundancy_estimate,
    redundancy_lower_bound,
)
from photon_darwinism.receptivity import alpha_disk, redundancy_rate
from photon_darwinism.sky import FULL_SPHERE, SkyRegion

CMB = 2.725


def _scenario(region=None, **overrides):
    base = dict(radius_m=1e-6, permittivity=4.0, dx_m=1e-6, temperature_K=CMB,
                region=region if region is not None else SkyRegion.isotropic())
    base.update(overrides)
    return Scenario(**base)


class TestEffectiveRadius:
    def test_frozen_value(self):
        # 1e-6 * ((4 - 1) / (4 + 2))^(1/3), mpmath cross-check
        assert effective_radius(1e-6, 4.0) == pytest.approx(
            7.937005259840997e-07, rel=1e-14
        )

    def test_contrast_formula(self):
        for eps in (1.5, 4.0, 11.68, 80.0):
            expected = 1e-6 * ((eps - 1.0) / (eps + 2.0)) ** (1.0 / 3.0)
            assert effective_radius(1e-6, eps) == pytest.approx(expected, rel=1e-14)

    def test_unit_permittivity_rejected(self):
        with pytest.raises(ValueError):
            effective_radius(1e-6, 1.0)


class TestBlackbodyFields:
    def test_cmb_photon_density_frozen(self):
        # 2 zeta(3) / pi^2 (kT / hbar c)^3 at 2.725 K, about 411 per cm^3
        assert photon_number_density(CMB, FULL_SPHERE) == pytest.approx(
            410500843.449, rel=1e-9
        )

    def test_density_assembles_from_constants(self):
        kt = BOLTZMANN * CMB / (HBAR * SPEED_OF_LIGHT)
        expected = 2.0 * ZETA_3 / math.pi**2 * kt**3
        assert photon_number_density(CMB, FULL_SPHERE) == pytest.approx(
            expected, rel=1e-13
        )

    def test_density_scales_with_patch_and_temperature_cube(self):
        full = photon_number_density(CMB, FULL_SPHERE)
        assert photon_number_density(CMB, FULL_SPHERE / 2.0) == pytest.approx(
            full / 2.0, rel=1e-14
        )
        assert photon_number_density(2.0 * CMB, FULL_SPHERE) == pytest.approx(
            8.0 * full, rel=1e-13
        )

    def test_patch_irradiance_is_stefan_boltzmann(self):
        sigma = math.pi**2 * BOLTZMANN**4 / (60.0 * HBAR**3 * SPEED_OF_LIGHT**2)
        omega = 0.37
        expected = sigma * CMB**4 / math.pi * omega
        assert patch_irradiance(CMB, omega) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            photon_number_density(-1.0, FULL_SPHERE)
        with pytest.raises(ValueError):
            patch_irradiance(0.0, 1.0)


class TestScenario:
    def test_effective_radius_property(self):
        scn = _scenario()
        assert scn.effective_radius_m == pytest.approx(
            effective_radius(1e-6, 4.0), rel=1e-15
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"radius_m": -1e-6},
            {"radius_m": 0.0},
            {"permittivity": 0.5},
            {"dx_m": 0.0},
            {"temperature_K": -1.0},
            {"radius_m": math.nan},
            {"radius_m": math.inf},
            {"permittivity": math.inf},
            {"permittivity": math.nan},
            {"dx_m": math.nan},
            {"temperature_K": math.inf},
            {"irradiance_W_m2": 0.0},
            {"irradiance_W_m2": -1.0},
            {"irradiance_W_m2": math.nan},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ScenarioError, match=next(iter(overrides))):
            _scenario(**overrides)

    def test_warns_outside_dipole_regime(self):
        with pytest.warns(UserWarning, match="thermal wavelength"):
            _scenario(radius_m=1e-3, temperature_K=300.0)

    def test_dipole_warning_names_the_line_that_built_the_scenario(self):
        # One level less named the dataclass-generated __init__, "<string>".
        with pytest.warns(UserWarning, match="thermal wavelength") as record:
            _scenario(radius_m=1e-3, temperature_K=300.0)
        assert record[0].filename == __file__

    def test_cold_small_scenario_is_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _scenario()


class TestRates:
    def test_isotropic_rate_assembles_from_zeta_moments(self):
        # Independent regrouping: twice the photon density times the
        # angle-averaged pair weight (8 pi / 9) a_eff^6 dx^2 <k^6> c, with
        # <k^6> = (kT / hbar c)^6 8! zeta(9) / (2 zeta(3)).
        scn = _scenario()
        y = BOLTZMANN * CMB / (HBAR * SPEED_OF_LIGHT)
        k6 = y**6 * math.factorial(8) * ZETA_9 / (2.0 * ZETA_3)
        n = photon_number_density(CMB, FULL_SPHERE)
        expected = (2.0 * n * (8.0 * math.pi / 9.0) * scn.effective_radius_m**6
                    * scn.dx_m**2 * k6 * SPEED_OF_LIGHT)
        assert isotropic_rate(scn) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:thermal wavelength")
    @pytest.mark.parametrize("temperature", [7e35, 1e36])
    def test_rate_past_the_largest_double_names_the_temperature(
            self, temperature):
        # 7e35 K returned inf; at 1e36 K y**8 raised a bare OverflowError.
        scn = _scenario(temperature_K=temperature)
        with pytest.raises(ValueError, match=re.escape(
                f"temperature_K = {temperature} (radius_m")):
            isotropic_rate(scn)
        with pytest.raises(ValueError, match="temperature_K"):
            decoherence_rate(_scenario(SkyRegion.disk(0.5),
                                       temperature_K=temperature))

    def test_disk_rate_special_angles(self):
        assert disk_rate(math.pi, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert disk_rate(0.0, 0.0) == 0.0
        for chi_deg in (0.0, 45.0, 90.0):
            assert disk_rate(math.pi / 2.0, math.radians(chi_deg)) == pytest.approx(
                0.5, abs=1e-15
            )
        # 60 degree aligned cap, exact rational 113/320
        assert disk_rate(math.pi / 3.0, 0.0) == pytest.approx(0.353125, rel=1e-14)

    def test_disk_rate_complement_identity(self):
        for theta0_deg in (10.0, 40.0, 90.0, 125.0, 170.0):
            for chi_deg in (0.0, 30.0, 60.0, 90.0):
                a = disk_rate(math.radians(theta0_deg), math.radians(chi_deg))
                b = disk_rate(math.radians(180.0 - theta0_deg),
                              math.radians(180.0 - chi_deg))
                assert a + b == pytest.approx(1.0, abs=1e-13)

    def test_disk_rate_takes_any_finite_tilt(self):
        # A chi sweep may leave [0, pi]; the form depends on cos^2(chi) only.
        for chi in (-0.4, 4.0, 10.0):
            assert disk_rate(1.0, chi) == pytest.approx(
                disk_rate(1.0, abs(chi) % math.pi), rel=1e-12)

    def test_disk_rate_monotone_in_aperture(self):
        thetas = np.linspace(0.0, math.pi, 50)
        vals = [disk_rate(float(t), 0.7) for t in thetas]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_quadrature_rate_matches_closed_form(self):
        scn = _scenario()
        for theta0_deg, chi_deg in ((30.0, 0.0), (60.0, 45.0), (120.0, 90.0)):
            region = SkyRegion.disk(math.radians(theta0_deg), math.radians(chi_deg))
            result = decoherence_rate(dataclasses.replace(scn, region=region))
            closed = disk_rate(math.radians(theta0_deg), math.radians(chi_deg))
            assert result.ratio == pytest.approx(closed, rel=1e-10)
            assert result.T_D_inv == pytest.approx(isotropic_rate(scn), rel=1e-12)
            assert result.tau_D_inv == pytest.approx(
                result.ratio * result.T_D_inv, rel=1e-12
            )

    def test_isotropic_region_recovers_the_reference_rate(self):
        scn = _scenario()
        result = decoherence_rate(scn)
        assert result.ratio == pytest.approx(1.0, rel=1e-12)
        assert result.tau_D_inv == pytest.approx(isotropic_rate(scn), rel=1e-10)

    def test_point_region_is_rejected(self):
        with pytest.raises(ValueError, match="point"):
            decoherence_rate(_scenario(region=SkyRegion.point()))

    @pytest.mark.parametrize("theta_deg", [0.0, 45.0, 90.0, 150.0])
    def test_point_region_with_irradiance_is_a_point_source(self, theta_deg):
        region = SkyRegion.point(math.cos(math.radians(theta_deg)))
        scn = _scenario(region=region, irradiance_W_m2=1e-5)
        result = decoherence_rate(scn)
        tau = point_source_rate(scn, math.acos(region.cos_theta))
        assert result.tau_D_inv == tau
        assert result.T_D_inv == isotropic_rate(scn)
        assert result.ratio == tau / result.T_D_inv

    def test_empty_custom_region_warns_and_gives_zero(self):
        u = np.array([-0.5, 0.5])
        phi = np.array([1.0, 2.0, 3.0])
        region = SkyRegion.custom(u, phi, np.zeros((2, 3), dtype=bool))
        with pytest.warns(UserWarning, match="zero solid angle"):
            result = decoherence_rate(_scenario(region=region))
        assert result.tau_D_inv == 0.0
        assert result.ratio == 0.0

    def test_custom_grid_over_the_sphere_is_not_priced(self):
        # A fully lit 2 x 4 grid at u = -1, 1 prices 24 sr; its ratio read 4.01.
        region = SkyRegion.custom([-1.0, 1.0], [0.5, 2.0, 3.5, 5.0],
                                  np.ones((2, 4)))
        with pytest.raises(ValueError) as info:
            decoherence_rate(_scenario(region=region))
        assert str(info.value) == ("custom grid prices 24 sr, more than the "
                                   "sphere (4 pi)")

    @pytest.mark.parametrize("rows, cols", [(7, 14), (30, 60)])
    def test_fully_lit_grid_at_six_decimals_is_priced(self, rows, cols):
        # Rounded centers price a little over the sphere; that is allowed.
        u = np.round(-1.0 + (np.arange(rows) + 0.5) * (2.0 / rows), 6)
        phi = np.round((np.arange(cols) + 0.5) * (2.0 * math.pi / cols), 6)
        region = SkyRegion.custom(u, phi, np.ones((rows, cols)))
        assert region.solid_angle_sr > FULL_SPHERE
        ratio = decoherence_rate(_scenario(region=region)).ratio
        assert ratio == pytest.approx(1.0, rel=0.02)


class TestPointSource:
    def _point_scenario(self, irradiance):
        return _scenario(region=SkyRegion.point(), irradiance_W_m2=irradiance)

    def test_needs_an_irradiance(self):
        with pytest.raises(ValueError, match="irradiance"):
            point_source_rate(self._point_scenario(None), 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_named(self, theta):
        # NaN gave a NaN rate and inf "math domain error".
        with pytest.raises(ValueError,
                           match=rf"^theta must be finite, got {theta}$"):
            point_source_rate(self._point_scenario(1e-5), theta)

    def test_pole_to_equator_ratio(self):
        scn = self._point_scenario(1e-5)
        ratio = point_source_rate(scn, 0.0) / point_source_rate(scn, math.pi / 2.0)
        assert ratio == pytest.approx(14.0 / 3.0, rel=1e-12)

    def test_linear_in_irradiance(self):
        lo = point_source_rate(self._point_scenario(1e-6), 0.3)
        hi = point_source_rate(self._point_scenario(3e-6), 0.3)
        assert hi == pytest.approx(3.0 * lo, rel=1e-13)

    def test_agrees_with_a_small_patch(self):
        # A 2 degree cap treated as a point source with the matching
        # irradiance should land within O(theta0^2) of the quadrature.
        theta0 = math.radians(2.0)
        patch = _scenario(region=SkyRegion.disk(theta0))
        general = decoherence_rate(patch).tau_D_inv
        irradiance = patch_irradiance(CMB, patch.region.solid_angle_sr)
        point = point_source_rate(self._point_scenario(irradiance), 0.0)
        assert point == pytest.approx(general, rel=5e-4)


def test_decoherence_factor():
    assert decoherence_factor(0.0, 2.0) == 1.0
    assert decoherence_factor(3.0, 2.0) == pytest.approx(math.exp(-6.0), rel=1e-14)
    with pytest.raises(ValueError):
        decoherence_factor(-1.0, 2.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call,message", [
    (lambda: redundancy_estimate(NAN, 1.0, 0.01), "t_over_tauD must be finite"),
    (lambda: redundancy_estimate(INF, 1.0, 0.01), "t_over_tauD must be finite"),
    (lambda: redundancy_lower_bound(NAN, 0.01), "t_over_tauD must be finite"),
    (lambda: redundancy_lower_bound(INF, 0.01), "t_over_tauD must be finite"),
    (lambda: redundancy_rate(0.5, NAN), "rate must be finite"),
    (lambda: redundancy_rate(0.5, INF), "rate must be finite"),
    (lambda: decoherence_factor(NAN, 1.0), "elapsed time must be finite"),
    (lambda: decoherence_factor(1.0, NAN), "rate must be finite"),
    (lambda: photon_number_density(NAN, 1.0), "temperature must be finite"),
    (lambda: patch_irradiance(NAN, 1.0), "temperature must be finite"),
    (lambda: patch_irradiance(CMB, NAN), "solid angle out of range"),
    (lambda: effective_radius(NAN, 4.0), "radius must be finite"),
    (lambda: effective_radius(1e-6, NAN), "permittivity must be finite"),
    (lambda: disk_rate(1.0, INF), "chi must be finite"),
    (lambda: alpha_disk(1.0, NAN), "chi must be finite"),
    (lambda: redundancy_rate(NAN, 1.0), r"alpha must be in \[0, 1\], got nan"),
    (lambda: disk_rate(NAN, 0.0), r"theta0 must be in \[0, pi\], got nan"),
    (lambda: alpha_disk(NAN, 0.0), r"theta0 must be in \[0, pi\], got nan"),
    (lambda: photon_number_density(CMB, NAN), "solid angle out of range: nan"),
], ids=["estimate-nan-t", "estimate-inf-t", "lower-bound-nan-t",
        "lower-bound-inf-t", "record-rate-nan", "record-rate-inf",
        "factor-nan-t", "factor-nan-rate", "density-nan-T",
        "irradiance-nan-T", "irradiance-nan-omega", "radius-nan",
        "permittivity-nan", "disk-rate-inf-chi", "alpha-disk-nan-chi",
        "record-rate-nan-alpha", "disk-rate-nan-theta0",
        "alpha-disk-nan-theta0", "density-nan-omega"])
def test_scalar_functions_reject_non_finite_inputs_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: disk_rate(4.0, 0.0), "theta0 must be in [0, pi], got 4.0"),
    (lambda: alpha_disk(-0.1, 0.0), "theta0 must be in [0, pi], got -0.1"),
    (lambda: redundancy_rate(-0.5, 1.0), "alpha must be in [0, 1], got -0.5"),
    (lambda: patch_irradiance(CMB, 13.0), "solid angle out of range: 13.0"),
    (lambda: photon_number_density(CMB, -1.0), "solid angle out of range: -1.0"),
], ids=["disk-rate-theta0", "alpha-disk-theta0", "record-rate-alpha",
        "irradiance-omega", "density-omega"])
def test_scalar_functions_reject_out_of_range_inputs_by_name(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# k_B T underflows to 0 below about 1e-301 K; the thermal wavelength is
# divided by T alone, so a scenario that cold still builds, with rates 0.
@pytest.mark.parametrize("temperature", [1e-305, 5e-324])
def test_cold_scenario_builds_with_zero_rates(temperature):
    result = decoherence_rate(_scenario(SkyRegion.disk(math.radians(60.0)),
                                        temperature_K=temperature))
    assert result.tau_D_inv == result.T_D_inv == 0.0
    assert result.ratio == pytest.approx(0.353125)


def test_point_beam_ratio_to_an_underflowed_full_sky_rate_is_refused():
    cold = _scenario(SkyRegion.point(math.sqrt(0.5)), temperature_K=1e-40,
                     irradiance_W_m2=1e-5)
    with pytest.raises(ValueError) as info:
        decoherence_rate(cold)
    assert str(info.value) == (
        "full-sky decoherence rate underflows to 0 at temperature_K = 1e-40 "
        "(radius_m = 1e-06, dx_m = 1e-06), so a point beam has no ratio to it")


class TestParseScenario:
    BASE = (
        "# desk-scale benchmark\n"
        "radius_m = 1e-6\n"
        "permittivity = 4.0\n"
        "\n"
        "dx_m = 1e-6\n"
        "temperature_K = 2.725\n"
    )

    def test_disk_region_in_degrees(self, tmp_path):
        path = tmp_path / "disk.cfg"
        path.write_text(self.BASE + "region = disk:60:30\n")
        scn = parse_scenario(path)
        assert scn.region.kind == "disk"
        assert math.degrees(scn.region.theta0) == pytest.approx(60.0, rel=1e-12)
        assert math.degrees(scn.region.chi) == pytest.approx(30.0, rel=1e-12)
        assert scn.irradiance_W_m2 is None

    def test_point_region_with_irradiance(self, tmp_path):
        path = tmp_path / "pt.cfg"
        path.write_text(self.BASE + "region = point:45\nirradiance_W_m2 = 1e-5\n")
        scn = parse_scenario(path)
        assert scn.region.kind == "point"
        assert scn.region.cos_theta == pytest.approx(
            math.cos(math.radians(45.0)), rel=1e-12
        )
        assert scn.irradiance_W_m2 == 1e-5

    def test_isotropic_region(self, tmp_path):
        path = tmp_path / "iso.cfg"
        path.write_text(self.BASE + "region = isotropic\n")
        assert parse_scenario(path).region == SkyRegion.isotropic()

    def test_custom_region_file(self, tmp_path):
        grid = tmp_path / "patch.txt"
        lines = ["# 2 2"]
        for u in (-0.5, 0.5):
            for phi, val in ((1.0, 1), (4.0, 0)):
                lines.append(f"{u} {phi} {val}")
        grid.write_text("\n".join(lines) + "\n")
        path = tmp_path / "cust.cfg"
        path.write_text(self.BASE + f"region = custom:{grid}\n")
        scn = parse_scenario(path)
        assert scn.region.kind == "custom"
        assert scn.region.grid_mask.sum() == 2

    def test_missing_keys_are_listed(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text("radius_m = 1e-6\n")
        with pytest.raises(ScenarioError, match="missing scenario keys"):
            parse_scenario(path)

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text(self.BASE + "region = isotropic\npermitivity = 4\n")
        with pytest.raises(ScenarioError, match="permitivity"):
            parse_scenario(path)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(self.BASE + "region = isotropic\nradius_m = 2e-6\n")
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(path)

    def test_bad_number_names_the_key(self, tmp_path):
        path = tmp_path / "num.cfg"
        path.write_text(self.BASE.replace("1e-6", "abc", 1) + "region = isotropic\n")
        with pytest.raises(ScenarioError, match="radius_m"):
            parse_scenario(path)

    def test_bad_region_spec(self, tmp_path):
        path = tmp_path / "reg.cfg"
        path.write_text(self.BASE + "region = disk:200:0\n")
        with pytest.raises(ScenarioError, match="region"):
            parse_scenario(path)

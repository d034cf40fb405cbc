"""Physical-unit layer: thermal photon flux and decoherence rates.

All SI handling lives here. The downstream information-theoretic modules
consume only dimensionless bundles (decoherence exponent, receptivity,
fragment fraction), so this module is the single place where CODATA
constants and temperature powers appear.

Rate formulas are evaluated in staged dimensionless groups, e.g.
(k_B T / hbar c)^8 * (k_B T / hbar), to keep intermediates inside the
double-precision exponent range for any sane temperature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .sky import (FULL_SPHERE, SkyRegion, _check_cap, _region_moments,
                  load_indicator_grid)

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "HBAR",
    "ZETA_3",
    "ZETA_4",
    "ZETA_9",
    "Scenario",
    "ScenarioError",
    "RateResult",
    "effective_radius",
    "photon_number_density",
    "patch_irradiance",
    "isotropic_rate",
    "decoherence_rate",
    "disk_rate",
    "point_source_rate",
    "decoherence_factor",
    "parse_scenario",
]

SPEED_OF_LIGHT = 299792458.0          # m / s, exact
BOLTZMANN = 1.380649e-23              # J / K, exact
HBAR = 1.054571817e-34                # J s, CODATA value derived from exact h

# Riemann zeta values entering the thermal spectral integrals.
ZETA_3 = 1.2020569031595943
ZETA_4 = 1.0823232337111382           # pi^4 / 90
ZETA_9 = 1.0020083928260822

_FACTORIAL_8 = 40320.0


class ScenarioError(ValueError):
    """Raised for malformed scenario configuration input."""


def effective_radius(radius: float, permittivity: float) -> float:
    """Scattering-effective radius of a dielectric sphere.

    The dipole polarizability contrast gives a_eff = a ((eps - 1)/(eps + 2))^(1/3),
    the Clausius-Mossotti factor. The (eps - 2) denominator that circulates
    in print is negative for eps < 2 and disagrees with that polarizability.
    """
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if not 1.0 < permittivity < math.inf:
        raise ValueError(
            "permittivity must be finite and exceed 1 for scattering contrast, "
            f"got {permittivity}"
        )
    return radius * ((permittivity - 1.0) / (permittivity + 2.0)) ** (1.0 / 3.0)


def _check_patch(temperature: float, omega: float) -> None:
    """Name the input unless 0 < temperature < inf and 0 <= omega <= 4 pi."""
    if not 0.0 < temperature < math.inf:
        raise ValueError(
            f"temperature must be finite and positive, got {temperature}")
    if not 0.0 <= omega <= FULL_SPHERE + 1e-12:
        raise ValueError(f"solid angle out of range: {omega}")


def photon_number_density(temperature: float, omega: float) -> float:
    """Thermal photon number density (1/m^3) from a patch of solid angle omega.

    omega zeta(3) (k_B T)^3 / (2 pi^3 c^3 hbar^3); linear in omega, with the
    full sphere reproducing the standard blackbody photon density
    2 zeta(3) (k_B T / hbar c)^3 / pi^2.
    """
    _check_patch(temperature, omega)
    y = BOLTZMANN * temperature / (HBAR * SPEED_OF_LIGHT)
    return omega * ZETA_3 * y**3 / (2.0 * math.pi**3)


def patch_irradiance(temperature: float, omega: float) -> float:
    """Irradiance (W/m^2) delivered by a blackbody patch at normal incidence.

    omega * 3 zeta(4) (k_B T)^4 / (2 pi^3 hbar^3 c^2), which is the usual
    sigma T^4 / pi radiance times the solid angle. Used to hand a finite
    patch to the point-source rate on equal photon-flux footing.
    """
    _check_patch(temperature, omega)
    y = BOLTZMANN * temperature / (HBAR * SPEED_OF_LIGHT)
    return omega * 3.0 * ZETA_4 / (2.0 * math.pi**3) * y**3 \
        * BOLTZMANN * temperature * SPEED_OF_LIGHT


@dataclass(frozen=True)
class Scenario:
    """Physical setup: sphere, separation, source temperature and region.

    The separation direction is the global z axis; region tilt is encoded
    in the region itself. irradiance_W_m2 is only consulted by the
    point-source rate.
    """

    radius_m: float
    permittivity: float
    dx_m: float
    temperature_K: float
    region: SkyRegion
    irradiance_W_m2: float | None = None

    def __post_init__(self):
        # Each value must lie strictly between its floor and infinity;
        # written as "not floor < value < inf" so that NaN fails as well.
        floors = {"radius_m": 0.0, "permittivity": 1.0, "dx_m": 0.0,
                  "temperature_K": 0.0}
        if self.irradiance_W_m2 is not None:
            floors["irradiance_W_m2"] = 0.0
        for key, floor in floors.items():
            value = getattr(self, key)
            if not floor < value < math.inf:
                raise ScenarioError(
                    f"{key} must be finite and above {floor:g}, got {value}")
        # Divided by T last: k_B T underflows to 0 below about 1e-301 K.
        lam = 2.0 * math.pi * HBAR * SPEED_OF_LIGHT / BOLTZMANN \
            / self.temperature_K
        # Outside the dipole regime the cross section model is wrong, but
        # the numbers still evaluate; warn instead of refusing.
        if lam < 10.0 * self.radius_m or lam < 10.0 * self.dx_m:
            warnings.warn(
                "thermal wavelength %.3g m is not large compared to the sphere "
                "(%.3g m) or the separation (%.3g m); dipole-regime formulas "
                "are being extrapolated" % (lam, self.radius_m, self.dx_m),
                stacklevel=3,
            )

    @property
    def effective_radius_m(self) -> float:
        return effective_radius(self.radius_m, self.permittivity)


@dataclass(frozen=True)
class RateResult:
    """Decoherence rate for a scenario, in SI and relative to the isotropic
    reference rate for the same sphere, separation and temperature."""

    tau_D_inv: float      # 1/s
    T_D_inv: float        # 1/s, full-sky value
    ratio: float          # tau_D_inv / T_D_inv


def _named(scenario: Scenario, *inputs: str) -> str:
    """The scenario's inputs, then its sphere, as a message names them."""
    named = " and ".join(f"{k} = {getattr(scenario, k)}" for k in inputs)
    return f"{named} (radius_m = {scenario.radius_m}, dx_m = {scenario.dx_m})"


def _finite_rate(rate, scenario: Scenario, *inputs: str) -> float:
    """rate(), or a ValueError naming inputs when it is no finite double."""
    try:
        value = rate()
    except OverflowError:  # a float ** int past the largest double
        value = math.inf
    if not value < math.inf:
        raise ValueError("decoherence rate is not a finite double at "
                         + _named(scenario, *inputs))
    return value


def isotropic_rate(scenario: Scenario) -> float:
    """Full-sky decoherence rate (1/s): the fastest the source can decohere.

    (16 * 8! zeta(9) / 9 pi) * a_eff^6 dx^2 (k_B T)^9 / (c^8 hbar^9).
    """
    y = BOLTZMANN * scenario.temperature_K / (HBAR * SPEED_OF_LIGHT)
    prefactor = 16.0 * _FACTORIAL_8 * ZETA_9 / (9.0 * math.pi)
    return _finite_rate(lambda: prefactor * scenario.effective_radius_m**6
                        * scenario.dx_m**2 * y**8
                        * (BOLTZMANN * scenario.temperature_K / HBAR),
                        scenario, "temperature_K")


def decoherence_rate(scenario: Scenario, order: int = 64, moments=None) -> RateResult:
    """Decoherence rate for the scenario's sky region.

    An extended region enters through the average of 3 + 11 cos^2(theta)
    over the patch, theta measured from the separation axis, as
    3 s[0] + 11 s[2] of the region's quadrature moments, normalized so that
    the isotropic region returns the full-sky rate exactly. A point region
    carries no solid angle and is priced by point_source_rate from the
    scenario's irradiance. A region that prices more than the sphere, which
    only a custom grid can, is an error. moments: as in alpha_numeric.
    """
    big_rate = isotropic_rate(scenario)
    region = scenario.region
    if region.kind == "point":
        tau = point_source_rate(scenario, math.acos(region.cos_theta))
        if big_rate == 0.0:
            raise ValueError("full-sky decoherence rate underflows to 0 at "
                             + _named(scenario, "temperature_K")
                             + ", so a point beam has no ratio to it")
        return RateResult(tau_D_inv=tau, T_D_inv=big_rate, ratio=tau / big_rate)
    omega = region.solid_angle_sr
    if omega == 0.0:
        warnings.warn("region has zero solid angle; decoherence rate is 0",
                      stacklevel=2)
        return RateResult(tau_D_inv=0.0, T_D_inv=big_rate, ratio=0.0)
    if omega > FULL_SPHERE * (1.0 + 1e-3):
        raise ValueError(f"custom grid prices {omega:g} sr, more than the "
                         "sphere (4 pi)")
    # integral over the region of (3 + 11 cos^2 theta) d_Omega
    mom = _region_moments(region, order, True) if moments is None else moments[0]
    patch_integral = float(3.0 * mom.s[0] + 11.0 * mom.s[2])
    ratio = patch_integral * 3.0 / (80.0 * math.pi)
    return RateResult(tau_D_inv=ratio * big_rate, T_D_inv=big_rate, ratio=ratio)


def _check_rate(tau_D_inv: float) -> None:
    """Reject a decoherence rate that is negative or not finite."""
    if not 0.0 <= tau_D_inv < math.inf:
        raise ValueError(f"rate must be finite and nonnegative, got {tau_D_inv}")


def disk_rate(theta0: float, chi: float) -> float:
    """Closed-form disk decoherence rate in units of the full-sky rate.

    (1/80) [40 - cos(theta0) (51 - 33 cos^2 chi)
                + cos^3(theta0) (11 - 33 cos^2 chi)].
    Nondecreasing in theta0, equal to 1/2 at a hemisphere for every tilt,
    and summing to 1 with the complementary disk (pi - theta0, pi - chi).
    """
    _check_cap(theta0, chi)
    ct = math.cos(theta0)
    cc2 = math.cos(chi) ** 2
    return (40.0 - ct * (51.0 - 33.0 * cc2) + ct**3 * (11.0 - 33.0 * cc2)) / 80.0


def point_source_rate(scenario: Scenario, theta: float) -> float:
    """Decoherence rate (1/s) for an unresolved source of given irradiance.

    (4 pi / 15)(8! zeta(9) / 3! zeta(4)) (3 + 11 cos^2 theta)
        * I a_eff^6 dx^2 (k_B T)^5 / (c^6 hbar^6),
    theta being the angle between the source direction and the separation
    axis. The temperature only shapes the thermal spectrum here; the flux
    normalization is carried entirely by the irradiance I.
    """
    irradiance = scenario.irradiance_W_m2
    if irradiance is None or irradiance <= 0.0:
        raise ValueError("point_source_rate needs a positive irradiance_W_m2")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    y = BOLTZMANN * scenario.temperature_K / (HBAR * SPEED_OF_LIGHT)
    prefactor = (4.0 * math.pi / 15.0) * _FACTORIAL_8 * ZETA_9 / (6.0 * ZETA_4)
    angular = 3.0 + 11.0 * math.cos(theta) ** 2
    return _finite_rate(lambda: prefactor * angular * irradiance
                        * scenario.effective_radius_m**6 * scenario.dx_m**2
                        * y**5 / (SPEED_OF_LIGHT * HBAR),
                        scenario, "irradiance_W_m2", "temperature_K")


def decoherence_factor(t: float, tau_D_inv: float) -> float:
    """Remaining squared coherence exp(-t * rate) after time t seconds."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"elapsed time must be finite and nonnegative, got {t}")
    _check_rate(tau_D_inv)
    return math.exp(-t * tau_D_inv)


_REQUIRED_KEYS = ("radius_m", "permittivity", "dx_m", "temperature_K", "region")
_OPTIONAL_KEYS = ("irradiance_W_m2",)


def _parse_region(value: str) -> SkyRegion:
    parts = value.split(":")
    kind = parts[0].strip().lower()
    if kind == "isotropic" and len(parts) == 1:
        return SkyRegion.isotropic()
    if kind == "disk" and len(parts) == 3:
        theta0 = math.radians(float(parts[1]))
        chi = math.radians(float(parts[2]))
        return SkyRegion.disk(theta0=theta0, chi=chi)
    if kind == "point" and len(parts) == 2:
        return SkyRegion.point(math.cos(math.radians(float(parts[1]))))
    if kind == "custom" and len(parts) >= 2:
        return load_indicator_grid(":".join(parts[1:]))
    raise ValueError(
        f"bad region spec {value!r}; expected disk:<theta0_deg>:<chi_deg>, "
        "point:<theta_deg>, isotropic, or custom:<path>"
    )


def parse_scenario(path) -> Scenario:
    """Read a key-value scenario file.

    Lines are `key = value`; blank lines and # comments are skipped. Keys
    are radius_m, permittivity, dx_m, temperature_K, region and the
    optional irradiance_W_m2.
    """
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
                raise ScenarioError(f"{path}:{lineno}: unknown scenario key {key!r}")
            if key in values:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ScenarioError(f"{path}: missing scenario keys: {', '.join(missing)}")
    try:
        region = _parse_region(values["region"])
    except (ValueError, OSError) as exc:
        raise ScenarioError(f"{path}: region: {exc}") from exc
    kwargs = {}
    # Every key but the region holds a number.
    for key in _REQUIRED_KEYS[:-1] + _OPTIONAL_KEYS:
        if key in values:
            try:
                kwargs[key] = float(values[key])
            except ValueError as exc:
                raise ScenarioError(f"{path}: {key}: {exc}") from exc
    try:
        return Scenario(region=region, **kwargs)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

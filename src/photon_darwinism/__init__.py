"""Decoherence and information redundancy from blackbody illumination.

A dielectric sphere held in a spatial superposition scatters thermal
photons arriving from a patch of sky. This package computes how fast the
superposition decoheres, how receptive the photon environment is to
recording which branch occurred, and how redundantly that record spreads
over photon fragments: the mutual information curves, redundancy growth
laws, and their generalizations to unbalanced and many-branch
superpositions, all cross-checked against a brute-force finite model.
"""

from .entropy_kernels import (
    LN2,
    binary_entropy_from_gap,
    h,
    h_power_series,
    m_spectrum_entropy,
)
from .sky import (
    FULL_SPHERE,
    SkyRegion,
    g2_weight,
    integrate_sphere,
    load_indicator_grid,
    solid_angle,
)
from .radiometry import (
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
from .receptivity import (
    alpha_closed_form,
    alpha_disk,
    alpha_numeric,
    receptivity_result,
    redundancy_rate,
)
from .information import (
    PipCurve,
    fragment_entropy_change,
    mutual_information,
    mutual_information_approx,
    mutual_information_at_time,
    pip_curve,
    redundancy_estimate,
    redundancy_exact,
    redundancy_lower_bound,
    system_entropy,
)
from .superpositions import (
    CatSpec,
    max_entropy,
    mi_interval_bounds,
    mi_mway,
    mi_mway_limit,
    mi_unbalanced,
    mi_unbalanced_limit,
)
from .discrete_oracle import (
    DiscreteEnv,
    OracleCapError,
    analytic_entropy_change,
    discrete_alpha,
    discrete_gamma,
    fragment_eigenvalues,
    fragment_entropy_change_exact,
    fragment_entropy_change_series,
    fragment_entropy_exact,
    mi_exact_general,
    oracle_battery,
    planck_spectral_nodes,
    scattering_probability_grid,
)

__version__ = "0.1.0"

__all__ = [
    "LN2",
    "FULL_SPHERE",
    "h",
    "h_power_series",
    "binary_entropy_from_gap",
    "m_spectrum_entropy",
    "SkyRegion",
    "solid_angle",
    "integrate_sphere",
    "g2_weight",
    "load_indicator_grid",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "effective_radius",
    "photon_number_density",
    "patch_irradiance",
    "isotropic_rate",
    "decoherence_rate",
    "disk_rate",
    "point_source_rate",
    "decoherence_factor",
    "alpha_closed_form",
    "alpha_numeric",
    "alpha_disk",
    "redundancy_rate",
    "receptivity_result",
    "PipCurve",
    "system_entropy",
    "fragment_entropy_change",
    "mutual_information",
    "mutual_information_at_time",
    "mutual_information_approx",
    "redundancy_exact",
    "redundancy_estimate",
    "redundancy_lower_bound",
    "pip_curve",
    "CatSpec",
    "max_entropy",
    "mi_unbalanced",
    "mi_unbalanced_limit",
    "mi_mway",
    "mi_mway_limit",
    "mi_interval_bounds",
    "DiscreteEnv",
    "OracleCapError",
    "fragment_eigenvalues",
    "fragment_entropy_exact",
    "fragment_entropy_change_exact",
    "fragment_entropy_change_series",
    "analytic_entropy_change",
    "discrete_gamma",
    "discrete_alpha",
    "scattering_probability_grid",
    "planck_spectral_nodes",
    "mi_exact_general",
    "oracle_battery",
    "__version__",
]

"""The public names: every __all__ entry is bound, and the package re-exports
each module's own object.

A stale entry would break ``from photon_darwinism import *`` and any tool
that looks up each ``__all__`` name with getattr.
"""

import importlib
import inspect
import pkgutil

import pytest

import photon_darwinism

MODULES = {info.name: importlib.import_module(f"photon_darwinism.{info.name}")
           for info in pkgutil.iter_modules(photon_darwinism.__path__)}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_all_names_are_bound(module):
    mod = MODULES[module]
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_all_names_are_bound():
    names = photon_darwinism.__all__
    assert [n for n in names if not hasattr(photon_darwinism, n)] == []
    namespace = {}
    exec("from photon_darwinism import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize(
    "name", sorted(set(photon_darwinism.__all__) - {"__version__"}))
def test_package_name_is_its_module_object(name):
    obj = getattr(photon_darwinism, name)
    homes = [m for m in MODULES.values() if name in getattr(m, "__all__", ())]
    assert homes, f"{name} comes from no module"
    assert all(vars(m)[name] is obj for m in homes)


LAYERS = ("entropy_kernels", "sky", "radiometry", "receptivity", "information",
          "superpositions", "discrete_oracle")

# The package's names before the module lists became its one declaration,
# less the four removed since (receptivity_result, the finite-model class,
# PipCurve and pip_curve).
EARLIER_NAMES = (
    "LN2 FULL_SPHERE h h_power_series binary_entropy_from_gap "
    "m_spectrum_entropy SkyRegion solid_angle integrate_sphere g2_weight "
    "load_indicator_grid Scenario ScenarioError parse_scenario "
    "effective_radius photon_number_density patch_irradiance isotropic_rate "
    "decoherence_rate disk_rate point_source_rate decoherence_factor "
    "alpha_closed_form alpha_numeric alpha_disk redundancy_rate "
    "system_entropy fragment_entropy_change "
    "mutual_information mutual_information_at_time mutual_information_approx "
    "redundancy_exact redundancy_estimate redundancy_lower_bound "
    "CatSpec max_entropy mi_unbalanced mi_unbalanced_limit mi_mway "
    "mi_mway_limit mi_interval_bounds OracleCapError "
    "fragment_eigenvalues fragment_entropy_exact fragment_entropy_change_exact "
    "fragment_entropy_change_series analytic_entropy_change discrete_gamma "
    "discrete_alpha scattering_probability_grid planck_spectral_nodes "
    "mi_exact_general oracle_battery __version__"
).split()


def test_package_all_is_the_modules_all():
    assert set(MODULES) == {*LAYERS, "cli"}
    names = photon_darwinism.__all__
    assert names == [n for layer in LAYERS for n in MODULES[layer].__all__] + [
        "__version__"]
    assert len(set(names)) == len(names)
    for layer in LAYERS:
        mod = MODULES[layer]
        defined = [n for n, obj in vars(mod).items() if not n.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == mod.__name__]
        assert [n for n in defined if n not in mod.__all__] == [], layer
    # No earlier name is lost, and each is still its module's own object.
    homes = {n: MODULES[layer] for layer in LAYERS for n in MODULES[layer].__all__}
    assert [n for n in EARLIER_NAMES[:-1] if n not in homes or
            getattr(photon_darwinism, n) is not vars(homes[n])[n]] == []

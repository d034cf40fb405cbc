"""The public names: every __all__ entry is bound, and the package re-exports
each module's own object.

A stale entry would break ``from photon_darwinism import *`` and any tool
that looks up each ``__all__`` name with getattr.
"""

import importlib
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
    # entropy_kernels keeps no __all__, so its names are found by binding.
    homes = ([m for m in MODULES.values() if name in getattr(m, "__all__", ())]
             or [m for m in MODULES.values() if name in vars(m)])
    assert homes, f"{name} comes from no module"
    assert all(vars(m)[name] is obj for m in homes)

"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import flipmatch

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(flipmatch.__path__, prefix="flipmatch.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"

"""Every name a module exports through `__all__` must exist."""

import importlib
import pkgutil

import pytest

import hpdcalc

MODULES = ["hpdcalc"] + [f"hpdcalc.{info.name}" for info in pkgutil.iter_modules(hpdcalc.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

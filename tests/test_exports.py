"""Each layer's ``__all__`` names only attributes the module has."""

import importlib

import pytest

MODULES = ("surfaces", "sampling", "metric", "separating", "covering", "util")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"singlab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from singlab.{name} import *", namespace)
    module = importlib.import_module(f"singlab.{name}")
    assert set(module.__all__) <= set(namespace)

"""Each layer's ``__all__`` names only attributes the module has, and every
public function and class the module defines."""

import importlib
import inspect

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


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_exported(name):
    module = importlib.import_module(f"singlab.{name}")
    public = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert [attr for attr in public if attr not in module.__all__] == []

"""Every name a robustmsd module exports in ``__all__`` exists in it and is defined there."""

import importlib
import inspect
import pkgutil

import pytest

import robustmsd

MODULES = ["robustmsd"] + [f"robustmsd.{m.name}" for m in pkgutil.iter_modules(robustmsd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_class_or_function_in_all_is_defined_in_its_module(name):
    module = importlib.import_module(name)
    owned_elsewhere = [
        n
        for n in getattr(module, "__all__", ())
        if (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
        and getattr(module, n).__module__ != name
    ]
    assert owned_elsewhere == []

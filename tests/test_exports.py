"""Every name a robustmsd module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import robustmsd

MODULES = ["robustmsd"] + [f"robustmsd.{m.name}" for m in pkgutil.iter_modules(robustmsd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

"""The package's public surface: what it exports exists."""

import importlib
import pkgutil

import pytest

import uce3

MODULES = sorted(m.name for m in pkgutil.iter_modules(uce3.__path__))


@pytest.mark.parametrize("name", ["uce3"] + [f"uce3.{m}" for m in MODULES])
def test_every_export_resolves(name):
    # a stale name in __all__ fails only `from <module> import *`
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", [])
    assert len(exports) == len(set(exports)), name
    assert [e for e in exports if not hasattr(mod, e)] == [], name

"""Every name that the package or one of its modules exports must exist."""

import importlib
import pkgutil

import pytest

import hybridsync

MODULES = ["hybridsync"] + [f"hybridsync.{m.name}" for m in pkgutil.iter_modules(hybridsync.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []

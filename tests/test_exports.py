"""Every exported name resolves: stale ``__all__`` entries break star imports
and anything that walks a module's exports."""

import importlib
import pkgutil

import pytest

import align_lab

MODULES = ["align_lab"] + [f"align_lab.{m.name}"
                           for m in pkgutil.iter_modules(align_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), name


def test_star_import_works():
    namespace: dict = {}
    exec("from align_lab import *", namespace)
    assert set(align_lab.__all__) <= set(namespace)

"""Every name a demimart module exports must exist, so a deleted function
cannot linger in an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import demimart

MODULES = sorted(
    f"demimart.{info.name}" for info in pkgutil.iter_modules(demimart.__path__)
)


def test_every_module_is_listed():
    assert "demimart.core" in MODULES and len(MODULES) >= 9


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"

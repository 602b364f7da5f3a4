"""The package's import surface: every module's ``__all__`` names what it
defines, so a name removed from a module cannot linger in its exports."""

import importlib
import pkgutil

import pytest

import groupcodes

MODULES = ["groupcodes"] + [
    f"groupcodes.{info.name}" for info in pkgutil.iter_modules(groupcodes.__path__)
]


def package_modules():
    """The package and each of its modules, imported."""
    return [importlib.import_module(name) for name in MODULES]


def test_every_module_is_listed():
    assert len(MODULES) > 10
    assert {"groupcodes.linalg", "groupcodes.structure", "groupcodes.oracle"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for exported in getattr(module, "__all__", ()):
        assert namespace[exported] is getattr(module, exported)

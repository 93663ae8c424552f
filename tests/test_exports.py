"""Every exported name resolves, and the package re-exports only module exports.

A function deleted from a module but left in an ``__all__`` list would
otherwise surface only as an ImportError in a user's ``from traceless import *``.
"""

import importlib
import pkgutil

import pytest

import traceless

MODULES = {
    name: importlib.import_module(f"traceless.{name}")
    for name in sorted(info.name for info in pkgutil.iter_modules(traceless.__path__))
}
EXPORTING = {name: mod for name, mod in MODULES.items() if hasattr(mod, "__all__")}


@pytest.mark.parametrize("name", ["traceless"] + [f"traceless.{name}" for name in EXPORTING])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"


def test_package_exports_come_from_modules():
    module_exports = {export: mod for mod in EXPORTING.values() for export in mod.__all__}
    stray = sorted(set(traceless.__all__) - set(module_exports))
    assert not stray, f"traceless.__all__ names {stray}, which no module exports"
    for export in traceless.__all__:
        assert getattr(traceless, export) is getattr(module_exports[export], export)

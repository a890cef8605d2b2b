"""The exported surface: every name in an ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import fluxmaser

MODULES = [fluxmaser] + [
    importlib.import_module(f"fluxmaser.{info.name}")
    for info in pkgutil.iter_modules(fluxmaser.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    # a name deleted from a module but left in its __all__ breaks `import *`
    # and the documented surface without failing any other test
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"{module.__name__}.__all__ lists missing names {stale}"

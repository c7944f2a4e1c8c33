import importlib
import pkgutil

import pytest

import smectic1d

MODULES = ["smectic1d"] + [
    f"smectic1d.{m.name}" for m in pkgutil.iter_modules(smectic1d.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry would otherwise fail only on "import *"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

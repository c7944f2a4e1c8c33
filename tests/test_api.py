import importlib
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize(
    "prelude",
    [
        "import smectic1d.sweep",
        "import smectic1d.cli",
        "import smectic1d.minimize",
        "from smectic1d.minimize import seed_state",
    ],
)
def test_package_minimize_is_the_function_in_any_import_order(child_env, prelude):
    # a fresh process: importing the submodule smectic1d.minimize first
    # must not leave the package attribute "minimize" bound to that module
    child = (
        f"{prelude}\n"
        "import sys, types\n"
        "import smectic1d\n"
        "from smectic1d import minimize\n"
        "assert isinstance(minimize, types.FunctionType), minimize\n"
        "assert minimize is smectic1d.minimize is sys.modules['smectic1d.minimize'].minimize\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60, env=child_env)
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_export():
    assert set(smectic1d.__all__) <= set(dir(smectic1d))

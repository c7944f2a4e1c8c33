import importlib
import importlib.util
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


def test_spectrum_layer_does_not_import_the_minimizer(child_env):
    # a fresh process: the spectrum reads the evaluator only, so importing
    # it leaves the minimizer and sweep layers unloaded
    child = (
        "import sys\n"
        "import smectic1d.stability\n"
        "loaded = [m for m in ('smectic1d.minimize', 'smectic1d.sweep') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60, env=child_env)
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_export():
    assert set(smectic1d.__all__) <= set(dir(smectic1d))


#: Probe targets deleted from the library on purpose; bench/probe.py reports
#: them as 0 until its TARGETS drop them.
REMOVED_PROBE_TARGETS = {("smectic1d.energy1d", "Evaluator.fields"), ("smectic1d.stability", "hessian")}


def test_benchmark_probe_targets_resolve(monkeypatch):
    # bench/probe.py skips a target whose attribute is gone and reports its
    # counters as 0, so a rename would zero a per-layer metric silently
    path = Path(__file__).resolve().parent.parent / "bench" / "probe.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("_bench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.TARGETS
    for module_name, attr in probe.TARGETS:
        target = importlib.import_module(module_name)
        if (module_name, attr) in REMOVED_PROBE_TARGETS:
            owner, _, leaf = attr.rpartition(".")
            assert not hasattr(getattr(target, owner) if owner else target, leaf), f"{module_name}.{attr} is back"
            continue
        for part in attr.split("."):
            assert hasattr(target, part), f"{module_name}.{attr}: no attribute {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr} is not callable"


def test_readme_python_blocks_run():
    # the library quick tour is documentation that must keep running
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_parse():
    # every smectic1d command of the README's shell blocks names flags that
    # exist: each line is parsed, not run
    from smectic1d import cli

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, flags=re.S | re.M)
    commands = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["smectic1d"]]
    assert len(commands) >= 13
    for argv in commands:
        cli._parser().parse_args(argv[1:])

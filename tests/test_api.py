import argparse
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


def test_tensor_module_is_array_functions_only():
    # the per-sample Q types are gone, so a re-added object type shows here
    from smectic1d import tensor

    names = ["f_el", "oseen_frank_density_1d", "uniaxial_reduction_offset", "unit_field", "reduction_residual"]
    assert tensor.__all__ == names
    assert [n for n, v in vars(tensor).items() if isinstance(v, type) and not n.startswith("_")] == []


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


#: Flags the README names that are not smectic1d options: pip's, and the
#: prose shorthand for the three --eta1/--eta2/--eta24 flags.
README_OTHER_FLAGS = {"--no-build-isolation", "--eta"}


def test_readme_and_parser_name_the_same_options():
    # each subcommand, option and config key is documented, and each flag
    # the README names exists, so a new knob or a removed one shows here
    from smectic1d import cli
    from smectic1d.params import RunConfig, format_config

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    subparsers = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert sorted(c for c in subparsers.choices if f"smectic1d {c} " not in text) == []
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    assert sorted(options - named) == []
    assert sorted(named - options - README_OTHER_FLAGS) == []
    # the config keys, in the order --echo writes them
    keys = [line.split(" = ")[0] for line in format_config(RunConfig()).splitlines()]
    assert f"`{' '.join(keys)}`" in " ".join(text.split())

"""README drift: every name the README's module table and Configuration
block cite must still exist in the package, and its library example runs."""

import argparse
import builtins
import dataclasses
import importlib
import math
import re
from pathlib import Path

from pathsgd import cli, config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _subcommands() -> set[str]:
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    return set()


def test_module_table_names_exist():
    rows = re.findall(r"^\| `(pathsgd\.\w+)` \| (.*) \|$", README, re.MULTILINE)
    assert len(rows) >= 8, "module table not found"
    commands = _subcommands()
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            if not (hasattr(module, name) or name in commands):
                missing.append(f"{module_name}: {name}")
    assert not missing, missing


def test_configuration_keys_are_fields():
    block = README.split("## Configuration", 1)[1].split("```", 2)[1]
    keys = re.findall(r"^(\w+) =", block, re.MULTILINE)
    assert len(keys) >= 10, "configuration block not found"
    fields = {f.name for f in dataclasses.fields(config.RunConfig)}
    assert not sorted(set(keys) - fields)


def test_library_example_runs():
    """The README's library example, its loop capped at 20 steps, prints a
    finite test MSE and kappa ratio."""
    code = README.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    printed = []
    exec(code, {"range": lambda n: builtins.range(min(n, 20)),
                "print": lambda *args: printed.append(args)})
    assert [args[0] for args in printed] == ["test MSE", "kappa2/kappa1"]
    assert all(math.isfinite(args[1]) for args in printed)

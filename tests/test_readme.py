"""README drift: every name the README's module table and Configuration
block cite must still exist in the package."""

import argparse
import dataclasses
import importlib
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

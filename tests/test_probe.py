"""The benchmark probe (perfbench/probe.py) still fits the package.

The probe wraps package functions by name from the outside, so a rename
or a changed train_loop signature would only show when the benchmark
runs.  These checks read the probe without changing it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from pathsgd import optim, tasks

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    probe = load_probe()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in probe.TRACED
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    for cls in (tasks.AdditionTask, tasks.SeqClassTask, tasks.CharLmTask):
        assert [m for m in probe.TASK_METHODS if not hasattr(cls, m)] == [], cls


def test_timed_loop_matches_train_loop():
    timed = next(node for node in ast.walk(ast.parse(PROBE.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "timed_loop")
    real = inspect.signature(optim.train_loop)
    # timed_loop stands in for train_loop: the same number of parameters,
    # and the same names for those with defaults, which callers pass by keyword
    names = [a.arg for a in timed.args.args]
    assert len(names) == len(real.parameters)
    assert names[len(names) - len(timed.args.defaults):] == [
        p.name for p in real.parameters.values() if p.default is not p.empty]
    # and what it passes on binds to train_loop
    call = next(node for node in ast.walk(timed) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "loop_span")
    real.bind(*range(len(call.args)), **{kw.arg: None for kw in call.keywords})

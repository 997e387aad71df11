"""The benchmark's tracer (`diagbench/tracing.py`) wraps diagcat entry
points by name and replaces a method in its owner's own `__dict__`.
This keeps a refactor of `src/` from leaving a traced name behind: the
file is parsed, not imported, so nothing under `diagbench/` runs or
changes."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "diagbench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in diagbench/tracing.py")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for span, module_name, path in names:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            assert attr in vars(owner), f"{span}: {attr} is not in {owner.__name__}.__dict__"
            target = vars(owner)[attr]
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{span}: {module_name}.{path} is not callable"

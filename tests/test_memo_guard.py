"""Every memo in diagcat must be one that the benchmark empties between
rounds. `diagbench/workloads.py::cache_clearers` calls `cache_clear` on
the module-level callables of a fixed list of diagcat modules; a memo
anywhere else would keep later rounds warm. The list is read from the
parsed file, so nothing under `diagbench/` is imported or changed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import diagcat

WORKLOADS = Path(__file__).resolve().parents[1] / "diagbench" / "workloads.py"


def cleared_modules():
    """Names of the diagcat modules that `cache_clearers` walks, read off
    the `for mod in (dc.a, dc.b, ...)` loop in its body."""
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "cache_clearers":
            for loop in ast.walk(node):
                if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
                    return {
                        f"diagcat.{elt.attr}"
                        for elt in loop.iter.elts
                        if isinstance(elt, ast.Attribute)
                    }
    raise AssertionError("no module loop in cache_clearers")


def memos():
    """(where, callable) for every lru_cache-wrapped callable found at
    module level or in a class body of a diagcat module."""
    for info in pkgutil.iter_modules(diagcat.__path__):
        module = importlib.import_module(f"diagcat.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                yield f"{module.__name__}.{name}", value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", member), "cache_clear"):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_memo_is_cleared_by_the_benchmark():
    cleared = cleared_modules()
    assert cleared
    found = list(memos())
    assert found, "no memo found; the search is broken"
    for where, memo in found:
        home = getattr(memo, "__module__", None)
        assert home in cleared, f"{where} is a memo in {home}, outside {sorted(cleared)}"
        # cache_clearers reads module attributes, so a class-level memo is missed
        owner = importlib.import_module(home)
        assert vars(owner).get(memo.__name__) is memo, f"{where} is not a module-level memo"

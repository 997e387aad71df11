"""No function in diagcat recurses through its own closure. A nested
function that calls itself holds a cell that refers back to it, so the
function, its frame's closure and everything they capture (often the
list of every result) form a cycle that outlives the call until the
cyclic collector runs. Such a helper belongs at module level, with its
state passed in. The source is parsed, not imported."""

import ast
from pathlib import Path

import diagcat

SOURCE = Path(diagcat.__file__).resolve().parent


def self_calling_closures(node, outer):
    """`outer.inner` for every function nested under `node`, inside
    the functions named by `outer`, that calls itself by name."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = {
                call.func.id
                for call in ast.walk(child)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            }
            if outer[1:] and child.name in calls:
                found.append(".".join([*outer, child.name]))
            found += self_calling_closures(child, [*outer, child.name])
        else:
            found += self_calling_closures(child, outer)
    return found


def test_the_guard_sees_a_self_calling_closure():
    tree = ast.parse(
        "def outer():\n"
        "    def inner(k):\n"
        "        return k and inner(k - 1)\n"
        "    return inner(3)\n"
        "def plain(k):\n"
        "    return k and plain(k - 1)\n"
    )
    assert self_calling_closures(tree, ["m"]) == ["m.outer.inner"]


def test_no_function_recurses_through_its_own_closure():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += self_calling_closures(ast.parse(path.read_text(), str(path)), [path.stem])
    assert found == []

"""No import statements inside function bodies on the simulator's hot layers.

A function-level ``import`` re-runs on every call: a ``sys.modules``
lookup plus a name binding, about 1 µs each.  cProfile counts that time
as the enclosing function's own, so it never gets a row of its own in a
profile.  This test reads the source of the layers every packet crosses
and fails on any such import outside a ``TYPE_CHECKING`` block, unless
the allowlist below names the function and says why the import must
stay where it is.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

import repro

#: the packages of ``repro`` whose code runs per packet, event or work item
LAYERS = ("sim", "cpu", "netstack", "overlay", "steering", "core")

#: (path under src/repro, qualified function name) -> why the import stays
ALLOWED = {
    ("netstack/protocol/tcp.py", "TcpSender._retransmit"): (
        "runs only when a retransmission timer fires (fault and migration "
        "runs); keeps repro.faults out of every fault-free run's imports"
    ),
    ("core/mflow.py", "MflowPolicy.attach_faults"): (
        "runs once per fault-injected run; keeps repro.faults out of every "
        "fault-free run's imports"
    ),
}

REPRO_ROOT = Path(repro.__file__).parent


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def function_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(qualified function name, line)`` of every import in a function body,
    skipping ``if TYPE_CHECKING:`` blocks."""

    def walk(nodes: Iterable[ast.AST], scope: List[str], in_function: bool):
        for node in nodes:
            children = ast.iter_child_nodes(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(children, scope + [node.name], True)
            elif isinstance(node, ast.ClassDef):
                yield from walk(children, scope + [node.name], in_function)
            elif isinstance(node, ast.If) and _is_type_checking(node.test):
                yield from walk(node.orelse, scope, in_function)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if in_function:
                    yield ".".join(scope), node.lineno
            else:
                yield from walk(children, scope, in_function)

    yield from walk(tree.body, [], False)


def _layer_files() -> List[Path]:
    return sorted(p for layer in LAYERS for p in (REPRO_ROOT / layer).rglob("*.py"))


def test_layers_have_no_function_level_imports():
    found = []
    used = set()
    for path in _layer_files():
        rel = path.relative_to(REPRO_ROOT).as_posix()
        for func, line in function_imports(ast.parse(path.read_text(), str(path))):
            if (rel, func) in ALLOWED:
                used.add((rel, func))
            else:
                found.append(f"{rel}:{line} in {func}")
    assert not found, "move these imports to module level:\n  " + "\n  ".join(found)
    # an entry whose import has moved is dead weight
    assert used == set(ALLOWED), f"stale allowlist entries: {set(ALLOWED) - used}"


def test_guard_sees_nested_and_skips_type_checking():
    tree = ast.parse(
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import json\n"
        "class A:\n"
        "    import re\n"
        "    def f(self):\n"
        "        if TYPE_CHECKING:\n"
        "            import json\n"
        "        else:\n"
        "            import csv\n"
        "        def g():\n"
        "            from math import pi\n"
        "        return g\n"
        "def h():\n"
        "    try:\n"
        "        import numpy\n"
        "    except ImportError:\n"
        "        pass\n"
    )
    assert list(function_imports(tree)) == [("A.f", 11), ("A.f.g", 13), ("h", 17)]

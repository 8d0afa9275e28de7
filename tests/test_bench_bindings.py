"""The benchmark's bindings into photonpost still resolve.

perfbench/tracing.py wraps the functions its TARGETS table names, and
perfbench/child.py imports names from photonpost; a library change that
removes or renames one of them breaks the benchmark.  Both files are read
here without running them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing_targets() -> dict:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS table")


def _child_imports() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("photonpost"):
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names if alias.name.startswith("photonpost")
            )
    return found


TRACED = [
    (f"photonpost.{module}", name)
    for module, names in _tracing_targets().items()
    for name in names
]


def test_tables_are_not_empty():
    assert len(TRACED) >= 10
    assert ("photonpost.search", "reevaluate") in _child_imports()


@pytest.mark.parametrize("module, name", TRACED + _child_imports())
def test_bound_name_exists(module, name):
    home = importlib.import_module(module)
    if name is not None:
        assert callable(getattr(home, name, None)), f"{module}.{name} is gone"

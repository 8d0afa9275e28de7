"""The package's modules import each other without cycles or private
names, only the conditioner's Readout builds engine output tables, and
every bad value they reject raises a PhotonPostError.

Imports inside functions count too: a deferred import still ties the two
modules together, it only hides the cycle from the interpreter.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import photonpost
from photonpost import (
    BadCount,
    BadDistributionShape,
    BadParameters,
    ConditionalResult,
    DetectionPattern,
    InputSpec,
    NegativeWeight,
    NotNormalized,
    ObservedPattern,
    PhotonConfig,
    PhotonPostError,
    SearchTask,
    beam_splitter,
    build_chain,
    chain_asymptotics,
    compose,
    haar_random,
    purify_super_poissonian,
    verify_nogo_small,
)
from photonpost.conditioner import Readout

PACKAGE = Path(photonpost.__file__).parent


def _imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "photonpost":
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base is None:  # from . import a, b
                names = [a.name for a in node.names]
                found.update(n for n in names if n in modules)
                if not all(n in modules for n in names):
                    found.add("__init__")
            else:
                found.add(base.partition(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "photonpost":
                    found.add(module.partition(".")[0] or "__init__")
    return found - {path.stem}


def import_graph() -> dict[str, set[str]]:
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    return {name: _imports(path, set(files)) for name, path in files.items()}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a list of modules (first repeated last), or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_checker_sees_deferred_imports_and_long_cycles(tmp_path):
    source = tmp_path / "conditioner.py"
    source.write_text(
        "import numpy\nfrom .engine import basis\n"
        "def f():\n    from .search import PatternScorer\n"
        "    from . import cli, not_a_module\n    import photonpost.merit\n"
    )
    modules = {"conditioner", "engine", "search", "cli", "merit"}
    assert _imports(source, modules) == {"engine", "search", "cli", "merit", "__init__"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_modules_import_without_cycles():
    graph = import_graph()
    assert {"conditioner", "engine", "search", "cli"} <= set(graph)
    assert "search" not in graph["conditioner"]
    assert find_cycle(graph) is None, find_cycle(graph)


def _engine_names(path: Path) -> set[str]:
    """Names one source file takes from the engine: imported, or read as engine.<name>."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("engine", "photonpost.engine"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "engine":
            names.add(node.attr)
    return names


def test_one_reader_per_kind_of_work_builds_output_tables():
    # conditioner.Readout reads one interferometer or a stack of them, for
    # exact counts (condition_mixed, search.PatternScorer) and detector
    # responses (detectors.observe) alike
    tables = {"output_table", "reader", "Reader"}  # output_table reads its table from a Reader
    users = {p.stem for p in PACKAGE.glob("*.py") if tables & _engine_names(p)}
    assert users == {"conditioner"}
    graph = import_graph()
    assert "engine" not in graph["detectors"] | graph["merit"]


def _private_names(path: Path, modules: set[str]) -> set[str]:
    """Underscore names one source file takes from other package modules:
    imported, or read as <module>._name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").split(".")[0] == "photonpost"
        ):
            names.update(a.name for a in node.names if a.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            if node.attr.startswith("_") and node.value.id != path.stem:
                names.add(f"{node.value.id}.{node.attr}")
    return names


def test_checker_sees_private_names(tmp_path):
    source = tmp_path / "search.py"
    source.write_text(
        "from __future__ import annotations\nfrom .conditioner import DetectionPattern, _clamp\n"
        "from . import engine\ndef f(q):\n    engine._private(q)\n    return engine.basis\n"
    )
    assert _private_names(source, {"conditioner", "engine", "search"}) == {
        "_clamp",
        "engine._private",
    }


def test_no_module_takes_a_private_name_from_another():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    taken = {p.stem: _private_names(p, modules) for p in PACKAGE.glob("*.py")}
    assert not any(taken.values()), {m: names for m, names in taken.items() if names}


def test_every_exported_name_resolves_once():
    names = photonpost.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(photonpost, n)]
    assert not missing, missing


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: ConditionalResult.from_unnormalized([0.5, -1e-3]), NegativeWeight),
        (lambda: ConditionalResult.from_unnormalized([0.5, -1e-16]), NegativeWeight),
        (lambda: ConditionalResult.from_unnormalized([[0.5]]), BadDistributionShape),
        (lambda: DetectionPattern((1, -1)), BadCount),
        (lambda: ObservedPattern((0, "maybe")), BadCount),
        (lambda: ObservedPattern((-1,)), BadCount),
        (lambda: PhotonConfig(()), BadCount),
        (lambda: PhotonConfig((1, -1)), BadCount),
        (lambda: InputSpec(({-1: 1.0},)), BadCount),
        (lambda: InputSpec(([(0, 0.5), (0, 0.5)],)), BadCount),
        (lambda: InputSpec(()), BadDistributionShape),
        (lambda: compose(), BadParameters),
        (lambda: DetectionPattern((1.5, 0.9)), BadCount),
        (lambda: DetectionPattern((math.nan,)), BadCount),
        (lambda: ObservedPattern((2.7, ">=2")), BadCount),
        (lambda: PhotonConfig((1, math.inf)), BadCount),
        (lambda: PhotonConfig(("2",)), BadCount),
        (lambda: InputSpec(({0: 0.5, 1.7: 0.5},)), BadCount),
        (lambda: InputSpec(([(math.nan, 1.0)],)), BadCount),
        (lambda: purify_super_poissonian({0: 0.5, 2.5: 0.5}, beam_splitter(0.4)), BadCount),
        (lambda: ConditionalResult.from_unnormalized([math.nan, 0.5]), NotNormalized),
        (lambda: ConditionalResult.from_unnormalized([0.5, math.inf]), NotNormalized),
        (lambda: _respond([[1.0, math.nan]]), NotNormalized),
        (lambda: _respond([[1.0, -0.5]]), NotNormalized),
        (lambda: _respond([[math.inf, 1.0]]), NotNormalized),
        (lambda: chain_asymptotics(4.7, 2), BadCount),
        (lambda: build_chain(4.5, 0.1), BadCount),
        (lambda: haar_random(2.5, 1), BadCount),
        (lambda: SearchTask(3.5, 0.2), BadCount),
    ],
    ids=[
        "negative-weight", "negative-dust-weight", "2-d-weights", "negative-detected",
        "unknown-outcome", "negative-outcome", "no-modes-config", "negative-config",
        "negative-count",
        "repeated-count", "no-modes-input", "compose-nothing", "fractional-detected",
        "nan-detected", "fractional-outcome", "infinite-config", "string-config",
        "fractional-count", "nan-count", "fractional-purify-count", "nan-weight",
        "infinite-weight", "nan-response", "negative-response", "infinite-response",
        "fractional-asymptotics-modes", "fractional-chain-modes", "fractional-haar-modes",
        "fractional-search-modes",
    ],
)
def test_bad_values_raise_photonpost_errors(make, error):
    with pytest.raises(error) as raised:
        make()
    assert isinstance(raised.value, PhotonPostError)
    assert not isinstance(raised.value, ValueError)


def _respond(columns):
    """The Readout of a beam splitter fed one photon, one column per detector."""
    return Readout(InputSpec.two_level([1.0, 0.0]), [columns]).condition(beam_splitter(0.4), None)


def test_whole_number_counts_read_as_ints():
    """2.0 is the count 2 wherever a count is read; only fractions are refused."""
    assert DetectionPattern((2.0, 1)).counts == (2, 1)
    assert ObservedPattern((1.0, ">=2")).outcomes == (1, ">=2")
    assert PhotonConfig((0.0, 3.0)).counts == (0, 3)
    assert InputSpec(({0.0: 0.5, 2.0: 0.5},)).distributions == (((0, 0.5), (2, 0.5)),)
    assert _respond([[1.0, 0.0]]).pattern_probability > 0.0
    assert chain_asymptotics(4.0, 2.0) == chain_asymptotics(4, 2)
    assert build_chain(4.0, 0.1).n_modes == 4
    assert np.array_equal(haar_random(2.0, 1).matrix, haar_random(2, 1).matrix)
    assert SearchTask(4.0, 0.2).n_modes == 4
    small = verify_nogo_small(2.0, 0.3, 5, 1, 5).to_json_dict()
    assert small == verify_nogo_small(2, 0.3, 5, 1, 5).to_json_dict()

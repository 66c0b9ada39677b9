"""tools/mutants.py stays in step with the code and tests it names, without running a mutant.

The tool itself runs pytest once per mutant and is not part of this suite;
these checks read its mutant list and find each text and each selection.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def selection_found(selection: str) -> bool:
    """The file of a pytest node id exists, and so does each class or function it names."""
    path, *names = selection.split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((d for d in body if isinstance(d, (ast.ClassDef, ast.FunctionDef))
                     and d.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_every_mutant_text_is_found_once():
    tool = load_tool()
    every = [*tool.MUTANTS, *tool.EQUIVALENT]
    stale = [m.name for m in every if not tool.located(m.module, m.old)]
    assert not stale


def test_every_name_is_unique():
    tool = load_tool()
    names = [m.name for m in [*tool.MUTANTS, *tool.EQUIVALENT]]
    assert len(names) == len(set(names))


def test_every_selection_names_an_existing_test():
    tool = load_tool()
    stale = [(m.name, s) for m in tool.MUTANTS for s in m.selection if not selection_found(s)]
    assert not stale


def test_the_guard_sees_a_stale_text_and_a_stale_selection():
    tool = load_tool()
    assert not tool.located("homology.py", "def _no_such_function(")
    assert selection_found("tests/test_mutants.py::test_every_selection_names_an_existing_test")
    assert not selection_found("tests/test_homology.py::TestBettiTables::test_no_such_test")
    assert not selection_found("tests/test_no_such_file.py")

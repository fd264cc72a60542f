"""Every top-level import of a ``src/`` module is used by that module.

No pyflakes or ruff ships with the test dependencies, so this is an
``ast`` walk: a name bound by a top-level ``import``/``from ... import``
must appear as a name anywhere in the module (string annotations
included).  Package ``__init__.py`` files (re-export surfaces), names
listed in ``__all__`` and imports marked ``# noqa: F401`` (deliberate
re-exports) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def _top_level_imports(tree: ast.Module, lines: List[str]) -> Dict[str, int]:
    """Bound name -> line of every top-level import not marked
    ``# noqa: F401`` (imports nested in a top-level ``if``/``try``
    count as top level)."""
    imported: Dict[str, int] = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "noqa: F401" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    return imported


def _annotation_strings(tree: ast.Module):
    """String constants inside annotations (``"Foo"`` forward refs)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.extend(arg.annotation for arg in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
                if arg is not None)
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for inner in ast.walk(annotation) if annotation else ():
            if isinstance(inner, ast.Constant) and \
                    isinstance(inner.value, str):
                yield inner.value


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(node.id for node in ast.walk(parsed)
                    if isinstance(node, ast.Name))
    return used


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> List[str]:
    """``"<name> (line <n>)"`` for every unused top-level import."""
    source = path.read_text()
    tree = ast.parse(source)
    imported = _top_level_imports(tree, source.splitlines())
    keep = _used_names(tree) | _exported(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in keep]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path) == []


def test_the_walk_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    return {}\n")
    assert unused_imports(module) == ["os (line 1)", "List (line 3)"]

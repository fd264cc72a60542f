"""Settable values under ``src/``: what a caller can set, module by module.

Run from the repository root::

    python -m tests.knobs

A settable value is one of three things, counted with an ``ast`` walk
over every module under ``src/``:

* an optional parameter: a positional or keyword-only parameter with a
  default, of any ``def`` (methods and nested functions included;
  lambdas are not counted);
* a defaulted class-body field: an annotated assignment with a value
  directly in a class body (``x: int = 0``, ``x: T = field(...)``);
* an argparse option: an ``add_argument`` call.

The script prints one row per module with any, then the totals.
``tests/test_knobs.py`` pins the per-module counts and their total, so
a change that adds or removes a settable value changes the pin in its
own diff.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"

#: Per module: (optional parameters, defaulted fields, argparse options).
Counts = Tuple[int, int, int]


def module_counts(tree: ast.AST) -> Counts:
    """The three counts of one parsed module."""
    optional = fields = options = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            optional += len(node.args.defaults) + sum(
                default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            fields += sum(isinstance(statement, ast.AnnAssign)
                          and statement.value is not None
                          for statement in node.body)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_argument":
            options += 1
    return optional, fields, options


def knob_counts(root: Path = SRC) -> Dict[str, Counts]:
    """Module path (relative to *root*, ``/``-separated) -> its counts,
    for every module with at least one settable value, sorted by path."""
    counts = {}
    for path in sorted(root.rglob("*.py")):
        found = module_counts(ast.parse(path.read_text(), str(path)))
        if any(found):
            counts[path.relative_to(root).as_posix()] = found
    return counts


def main() -> None:
    counts = knob_counts()
    print(f"{'module':<44} {'params':>6} {'fields':>6} {'options':>7} "
          f"{'total':>5}")
    for module, (optional, fields, options) in counts.items():
        print(f"{module:<44} {optional:>6} {fields:>6} {options:>7} "
              f"{optional + fields + options:>5}")
    optional, fields, options = (sum(column) for column in
                                 zip(*counts.values()))
    print(f"{'total':<44} {optional:>6} {fields:>6} {options:>7} "
          f"{optional + fields + options:>5}")


if __name__ == "__main__":
    main()

"""Reach profile: the functions under ``src/`` that no shipped path calls.

Run from the repository root::

    python -m tests.reach

The profile records the ``call`` events of ``sys.setprofile`` (and
``threading.setprofile``, so server threads count) while it runs what
the repository ships, in-process and at the ``tiny`` size:

* every registered scenario through ``reachability``, ``analyses`` and
  (for timeline scenarios) ``timeline``, plus a cold and a warm
  disk-cache run of ``europe2013`` (the daemon's ``--cache-dir``);
* ``repro.service.smoke.run_smoke`` on every scenario;
* the six example invocations CI runs;
* the figure benches (``benchmarks/bench_*.py`` under pytest);
* perfbench's four workloads (set-up, one op, the final check).

A function is keyed by ``(file, first line, name)``, where a ``def``'s
first line is its first decorator's (``co_firstlineno``).  Module
functions and class methods count; a function nested in another
function is part of its enclosing body.  An unreached function must be
a dunder or be listed in ``reach_entry_points.txt`` beside this file,
one ``module:qualname  reason`` per line.  The gate fails on an
unreached function that is neither, and on a listed entry that no
longer exists or is now reached, so new dead code shows up in review.
It prints every function that stays unreached, dunder or listed.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_POINTS = Path(__file__).resolve().parent / "reach_entry_points.txt"

#: (absolute file, first line, name): the identity of one ``def``.
Key = Tuple[str, int, str]


@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    first: int      #: first decorator's line, or the ``def`` line
    last: int

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1

    @property
    def dunder(self) -> bool:
        short = self.qualname.rsplit(".", 1)[-1]
        return short.startswith("__") and short.endswith("__")


def module_name(path: Path, root: Path = SRC) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def source_functions(root: Path = SRC) -> Dict[Key, Function]:
    """Every module function and class method under *root*."""
    functions: Dict[Key, Function] = {}
    for path in sorted(root.rglob("*.py")):
        module = module_name(path, root)
        tree = ast.parse(path.read_text(), filename=str(path))
        pending = [(node, "") for node in tree.body]
        while pending:
            node, prefix = pending.pop()
            if isinstance(node, ast.ClassDef):
                pending.extend((child, f"{prefix}{node.name}.")
                               for child in node.body)
            elif isinstance(node, (ast.If, ast.Try)):
                pending.extend((child, prefix)
                               for child in ast.iter_child_nodes(node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [decorator.lineno for decorator
                                             in node.decorator_list])
                functions[(str(path), first, node.name)] = Function(
                    module, prefix + node.name, first, node.end_lineno)
    return functions


def load_entry_points(path: Path = ENTRY_POINTS) -> Dict[str, str]:
    """``module:qualname`` -> reason, from the checked-in list."""
    entries: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        entries[name] = reason.strip()
    return entries


def resolves(name: str) -> bool:
    """Whether ``module:qualname`` names an importable attribute."""
    module, _, qualname = name.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    for part in qualname.split("."):
        try:
            owner = inspect.getattr_static(owner, part)
        except AttributeError:
            return False
    return True


# -- the profile ------------------------------------------------------------


@contextlib.contextmanager
def recorded_calls() -> Iterator[Set[Key]]:
    """Record the code of every Python call, in every thread, into the
    yielded set (filled when the block exits)."""
    codes = set()
    add = codes.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    keys: Set[Key] = set()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield keys
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        keys.update((os.path.realpath(code.co_filename), code.co_firstlineno,
                     code.co_name) for code in codes)


def _scenarios() -> None:
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios.spec import all_scenarios
    for spec in all_scenarios():
        run = ScenarioRun(spec.config("tiny"), scenario=spec.name,
                          cache=ArtifactCache())
        run.artifact("reachability")
        run.analyses()
        if spec.timeline is not None:
            run.timeline()


def _disk_cache() -> None:
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios.spec import get_scenario
    config = get_scenario("europe2013").config("tiny")
    with tempfile.TemporaryDirectory() as tmp:
        for _ in ("cold", "warm"):
            ScenarioRun(config, scenario="europe2013",
                        cache=ArtifactCache(Path(tmp))).inference()


def _smoke() -> None:
    from repro.scenarios import scenario_names
    from repro.service.smoke import run_smoke
    for name in scenario_names():
        run_smoke(name, size="tiny")


#: The example invocations of CI, as argv.
EXAMPLES = (
    ("quickstart.py",),
    ("passive_discovery.py", "--size", "tiny"),
    ("peering_policy_report.py", "--size", "tiny"),
    ("europe2013_survey.py", "--scale", "small"),
    ("survey.py", "--scenario", "europe2013", "--size", "tiny"),
    ("query_service.py", "--scenario", "europe2013", "--size", "tiny"),
)


def _examples() -> None:
    argv = sys.argv
    try:
        for script, *args in EXAMPLES:
            path = ROOT / "examples" / script
            sys.argv = [str(path), *args]
            try:
                runpy.run_path(str(path), run_name="__main__")
            except SystemExit as stop:
                if stop.code:
                    raise RuntimeError(f"{script} exited {stop.code}")
    finally:
        sys.argv = argv


def _figure_benches() -> None:
    import pytest
    benches = sorted(str(path) for path
                     in (ROOT / "benchmarks").glob("bench_*.py"))
    code = pytest.main([*benches, "-q", "--benchmark-disable",
                        "-p", "no:cacheprovider"])
    if code:
        raise RuntimeError(f"figure benches failed ({code})")


def _perfbench() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
        for name, cls in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                workload = cls(workloads.DEFAULT_SEEDS[name], "tiny",
                               Path(tmp))
                workload.setup()
                workload.run_op(1, workloads.OpTimer())
                problems = workload.check()
                workload.close()
            if workload.failures or problems:
                raise RuntimeError(f"perfbench {name}: "
                                   f"{workload.failures + problems}")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


#: The shipped set, in order: (label, runner).
SHIPPED: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("scenarios", _scenarios),
    ("disk cache", _disk_cache),
    ("daemon smoke", _smoke),
    ("examples", _examples),
    ("figure benches", _figure_benches),
    ("perfbench", _perfbench),
)


def profile_shipped(log=print) -> Set[Key]:
    """Run the shipped set under the call profile; the keys it called.

    Output of the runs is swallowed (shown only when one fails)."""
    for path in (SRC, ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    with recorded_calls() as called:
        for label, runner in SHIPPED:
            started = time.perf_counter()
            output = io.StringIO()
            try:
                with contextlib.redirect_stdout(output):
                    runner()
            except BaseException:
                sys.stderr.write(output.getvalue())
                raise
            log(f"[reach] {label}: {time.perf_counter() - started:.1f} s")
    return called


# -- the gate ---------------------------------------------------------------


def problems_of(functions: Dict[Key, Function], called: Set[Key],
                entries: Dict[str, str]) -> List[str]:
    """Every gate violation: unlisted unreached functions, listed
    entries that are missing, reached or without a reason."""
    names = {function.name for function in functions.values()}
    unreached = {function.name for key, function in functions.items()
                 if key not in called and not function.dunder}
    problems = [f"unreached and not listed: {name}"
                for name in sorted(unreached - set(entries))]
    for name, reason in sorted(entries.items()):
        if name not in names or not resolves(name):
            problems.append(f"listed but not found: {name}")
        elif name not in unreached:
            problems.append(f"listed but reached: {name}")
        if not reason:
            problems.append(f"listed without a reason: {name}")
    return problems


def main() -> int:
    functions = source_functions()
    entries = load_entry_points()
    called = profile_shipped()
    unreached = [function for key, function in functions.items()
                 if key not in called]
    dunders = [function for function in unreached if function.dunder]
    print(f"[reach] {len(functions)} functions under src/, "
          f"{len(unreached)} unreached "
          f"({sum(f.lines for f in unreached)} lines): "
          f"{len(dunders)} dunders, {len(unreached) - len(dunders)} "
          f"others")
    for function in sorted(unreached, key=lambda f: (not f.dunder, f.name)):
        kind = ("dunder" if function.dunder else
                "listed" if function.name in entries else "unlisted")
        print(f"[reach]   {kind} {function.name} ({function.lines})")
    problems = problems_of(functions, called, entries)
    for problem in problems:
        print(f"[reach] {problem}")
    print("[reach] " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

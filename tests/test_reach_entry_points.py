"""Every entry of ``tests/reach_entry_points.txt`` names a function
under ``src/`` that imports, and says why it stays although no shipped
path calls it (``python -m tests.reach`` checks the rest)."""

from __future__ import annotations

from tests.reach import load_entry_points, resolves, source_functions


def test_every_entry_resolves_and_has_a_reason():
    entries = load_entry_points()
    assert entries
    defined = {function.name for function in source_functions().values()}
    for name, reason in entries.items():
        assert reason, f"{name}: no reason"
        assert name in defined, f"{name}: no such function under src/"
        assert resolves(name), f"{name}: does not import"

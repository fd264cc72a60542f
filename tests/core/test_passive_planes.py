"""Passive extraction from the archive's columns against the entry oracle.

:func:`repro.core.planes.extract_passive_planes` reads a
:class:`~repro.collectors.archive.StableEntries` view column by column;
:func:`tests.oracle.inference.extract_passive_planes` is the original
pass over materialised :class:`~repro.bgp.messages.RibEntry` objects.
Both must produce the same observation planes (rows in order, passive
members, covered prefixes), the same policy table and the same prefix
interner: on every registered scenario at tiny for several transient
filter windows, and on a hand-made archive whose rows reach every drop
branch (dirty paths, empty and ambiguous community bags, setters that
cannot be pin-pointed) — no registered scenario has a dirty stable row.
"""

from __future__ import annotations

from collections.abc import Sequence

import pytest

from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.collectors.archive import (
    CollectorArchive,
    MeasurementWindow,
    StableEntries,
)
from repro.collectors.route_collector import RouteCollector
from repro.core.engine import MLPInferenceEngine
from repro.core.planes import PolicyTable, extract_passive_planes
from repro.ixp.community_schemes import CommunityScheme, SchemeRegistry
from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.interning import Interner
from repro.scenarios.spec import get_scenario, scenario_names

from tests.oracle import inference as oracle
from tests.oracle.observation import dump_from_rows, entry_is_clean
from tests.oracle.steps import PassiveInference
from tests.oracle.inference import identical

MIN_DAYS = (1, 2, 3, 99)


def passive_state(extract, entries, engine):
    """Everything one passive extraction writes: per plane (in creation
    order) its rows, passive members and covered prefixes, then the
    policy table's and the prefix interner's values."""
    prefixes, policies, planes = Interner(), PolicyTable(), {}
    extract(entries, engine.interpreter, engine.relationships, prefixes,
            policies, planes)
    return {
        "planes": [(name, plane.rows, plane.passive_members,
                    plane.covered_prefixes)
                   for name, plane in planes.items()],
        "policies": [policies.policy(i) for i in range(len(policies))],
        "prefixes": list(prefixes.values),
    }


def assert_matches_oracle(view, engine):
    mine = passive_state(extract_passive_planes, view, engine)
    theirs = passive_state(oracle.extract_passive_planes, list(view), engine)
    assert mine == theirs
    return mine


# -- every registered scenario ---------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_columnar_passive_planes_match_entry_oracle(name):
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    scenario = run.scenario()
    engine = scenario.make_engine()
    for min_days in MIN_DAYS:
        view = scenario.archive.clean_stable_entries(min_days)
        assert isinstance(view, StableEntries)
        assert_matches_oracle(view, engine)


# -- a hand-made archive through every drop branch -------------------------------

MEMBERS = {100, 200, 300, 400}
DECIX_ALL = Community(6695, 6695)
MSKIX_ALL = Community(8631, 8631)
#: ``0:peer`` excludes with no RS ASN: both zero-high schemes claim it.
BARE_EXCLUDE = Community(0, 300)

#: (label, AS path observer-first, community bag)
ROWS = [
    ("two participants", (500, 100, 200), frozenset({DECIX_ALL})),
    ("exclude", (500, 100, 200), frozenset({DECIX_ALL,
                                            Community(0, 300)})),
    ("prepended", (500, 100, 100, 300), frozenset({DECIX_ALL})),
    ("private ASN", (500, 65001, 200), frozenset({DECIX_ALL})),
    ("non-consecutive repeat", (500, 100, 500, 200),
     frozenset({DECIX_ALL})),
    ("empty bag", (500, 100, 200), frozenset()),
    ("foreign community", (500, 100, 200), frozenset({Community(3356, 1)})),
    ("ambiguous IXP", (500, 100, 200), frozenset({BARE_EXCLUDE})),
    ("one participant", (500, 600, 200), frozenset({DECIX_ALL})),
    ("two p2p pairs", (100, 200, 300), frozenset({DECIX_ALL})),
    ("one p2p pair", (400, 300, 100), frozenset({MSKIX_ALL})),
    ("none-except", (500, 300, 400), frozenset({Community(0, 8631),
                                                Community(8631, 100)})),
]
PREFIXES = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]


def hand_made_dump():
    """The dump of :data:`ROWS`, each with two prefixes, collected by
    one ``hand-made`` collector from the path's first AS."""
    return dump_from_rows(
        (path[0], prefix, path, bag, "hand-made")
        for position, (_label, path, bag) in enumerate(ROWS)
        for prefix in (PREFIXES[position % 4], PREFIXES[position % 3]))


@pytest.fixture(scope="module")
def archive():
    archive = CollectorArchive([RouteCollector(name="hand-made")],
                               window=MeasurementWindow(num_days=3), seed=3)
    archive.record(hand_made_dump(), transient_fraction=0.5)
    return archive


@pytest.fixture(scope="module")
def engine():
    registry = SchemeRegistry([
        CommunityScheme.rs_asn_style("DE-CIX", rs_asn=6695),
        CommunityScheme.zero_exclude_style("MSK-IX", rs_asn=8631)])
    return MLPInferenceEngine(
        registry=registry,
        rs_members={"DE-CIX": MEMBERS, "MSK-IX": MEMBERS},
        relationships={(100, 200): Relationship.PEER,
                       (200, 300): Relationship.PEER,
                       (400, 300): Relationship.CUSTOMER,
                       (300, 100): Relationship.PEER})


def test_hand_made_rows_reach_every_drop_branch(archive, engine):
    entries = list(archive.stable_entries(1))
    passive = PassiveInference(engine.interpreter, engine.relationships)
    passive.extract(entries)
    stats = passive.stats
    assert stats.entries_dirty and stats.entries_ambiguous_ixp
    assert stats.entries_without_rs_communities and stats.entries_without_setter
    assert stats.observations
    dirty = {entry.as_path.asns for entry in archive.stable_entries(2)
             if not entry_is_clean(entry)}
    assert dirty == {(500, 65001, 200), (500, 100, 500, 200)}
    setters = {label: passive.identify_setter("DE-CIX", ASPath(path))
               for label, path, _bag in ROWS}
    assert setters["one participant"] is None
    assert setters["two p2p pairs"] is None
    assert setters["one p2p pair"] == 100
    assert setters["prepended"] == 300


@pytest.mark.parametrize("min_days", MIN_DAYS)
def test_hand_made_archive_matches_entry_oracle(archive, engine, min_days):
    clean = archive.clean_stable_entries(min_days)
    stable = archive.stable_entries(min_days)
    # The clean mask drops exactly the dirty-path rows.
    assert [entry for entry in stable if entry_is_clean(entry)] == list(clean)
    assert len(clean) < len(stable)
    for view in (clean, stable):
        state = assert_matches_oracle(view, engine)
        names = [name for name, *_ in state["planes"]]
        assert names == ["DE-CIX", "MSK-IX"]
        assert ("all-except", frozenset({300})) in state["policies"]
        assert ("none-except", frozenset({100})) in state["policies"]


def test_transient_rows_count_only_in_a_one_day_window(archive):
    assert len(archive.stable_entries(1)) > len(archive.stable_entries(2))
    assert len(archive.stable_entries(2)) == len(archive.stable_entries(99))


# -- the view --------------------------------------------------------------------


def test_stable_view_is_a_memoised_read_only_sequence(archive):
    view = archive.clean_stable_entries(2)
    assert archive.clean_stable_entries(2) is view
    assert isinstance(view, Sequence)
    entries = list(view)
    assert len(view) == len(entries)
    assert view[0] is entries[0] and view[-1] is entries[-1]
    assert view[1:3] == entries[1:3]
    assert entries[2] in view
    with pytest.raises(IndexError):
        view[len(view)]
    with pytest.raises(TypeError):
        view[0] = entries[1]
    with pytest.raises(ValueError):
        view.rows[0] = 0
    assert not hasattr(view, "append")


def test_engine_accepts_only_the_stable_view(archive, engine):
    view = archive.clean_stable_entries(2)
    with pytest.raises(TypeError, match="stable view"):
        engine.run(passive_entries=list(view))
    with pytest.raises(TypeError, match="stable view"):
        engine.run(passive_entries=tuple(view))
    result = engine.run(passive_entries=view)
    expected = oracle.ObjectInferenceEngine(
        registry=engine.registry, rs_members=engine.rs_members,
        relationships=engine.relationships).run(passive_entries=view)
    assert identical(result, expected)
    assert result.matrix.planes["DE-CIX"].passive_members

"""Event timelines and delta replay: semantics, determinism, and the
bit-identity of incremental replay against from-scratch rebuilds."""

import copy
import pickle
import random

import pytest

from repro.pipeline.run import ScenarioRun
from repro.runtime.delta import fragments_equivalent
from repro.scenarios.events import (
    EVENT_FAMILIES,
    ImpossibleEventError,
    MemberJoin,
    MemberLeave,
    PolicyEdit,
    PrefixChurn,
    ReplayState,
    SessionDown,
    SessionUp,
    TimelineReplay,
    TimelineSpec,
    build_timeline,
    event_family_names,
    rebuild_propagation,
    record_sets,
)
from repro.scenarios.spec import get_scenario, scenario_names
from repro.topology.as_graph import LinkType

from tests.oracle.kernels import KERNELS, forced_kernel

PRODUCTION_BACKENDS = KERNELS


@pytest.fixture(scope="module")
def tiny_baseline():
    """The europe2013 tiny baseline: state + propagation artifact."""
    spec = get_scenario("europe2013-churn")
    run = ScenarioRun(scenario="europe2013-churn", config=spec.config("tiny"))
    prop = run.artifact("propagation")
    scenario = run.scenario()
    record_at, record_alt = record_sets(prop)
    return {
        "spec": spec,
        "run": run,
        "graph": scenario.graph,
        "route_servers": scenario.route_servers,
        "baseline": prop["propagation"],
        "record_at": record_at,
        "record_alt": record_alt,
    }


# ---------------------------------------------------------------------------
# registration and determinism
# ---------------------------------------------------------------------------


def test_event_families_registered():
    assert event_family_names() == ["churn", "failover", "flap-storm"]
    names = scenario_names()
    for family in event_family_names():
        assert f"europe2013-{family}" in names
        spec = get_scenario(f"europe2013-{family}")
        assert spec.timeline == TimelineSpec(family=family, length=8,
                                             seed=20130508)


def test_unknown_event_family_raises(tiny_baseline):
    with pytest.raises(ValueError, match="unknown event family"):
        build_timeline(TimelineSpec(family="nope"),
                       tiny_baseline["graph"],
                       tiny_baseline["route_servers"])


@pytest.mark.parametrize("family", sorted(EVENT_FAMILIES))
def test_build_timeline_is_deterministic(tiny_baseline, family):
    spec = TimelineSpec(family=family, length=8, seed=7)
    first = build_timeline(spec, tiny_baseline["graph"],
                           tiny_baseline["route_servers"])
    second = build_timeline(spec, tiny_baseline["graph"],
                            tiny_baseline["route_servers"])
    assert first == second
    assert len(first) == 8


# ---------------------------------------------------------------------------
# event interpreter semantics
# ---------------------------------------------------------------------------


def test_session_flap_restores_the_exact_link(tiny_baseline):
    graph, route_servers = copy.deepcopy(
        (tiny_baseline["graph"], tiny_baseline["route_servers"]))
    state = ReplayState(graph, route_servers)
    link = sorted(graph.links(LinkType.RS_P2P),
                  key=lambda l: l.endpoints)[0]
    effect = state.apply(SessionDown(link.a, link.b))
    assert effect.removed_links == (link,)
    assert effect.touches_index
    assert graph.get_link(link.a, link.b) is None
    effect = state.apply(SessionUp(link.a, link.b))
    assert effect.added_links == (link,)
    assert graph.get_link(link.a, link.b) == link
    # A second up is impossible (nothing left in the flap registry).
    with pytest.raises(ImpossibleEventError, match="no session down"):
        state.apply(SessionUp(link.a, link.b))


def test_pair_recompute_never_resurrects_a_downed_session(tiny_baseline):
    graph, route_servers = copy.deepcopy(
        (tiny_baseline["graph"], tiny_baseline["route_servers"]))
    state = ReplayState(graph, route_servers)
    ixp = sorted(route_servers)[0]
    route_server = route_servers[ixp]
    members = route_server.members()
    link = next(l for l in sorted(graph.links(LinkType.RS_P2P),
                                  key=lambda l: l.endpoints)
                if l.ixp == ixp and l.a in members and l.b in members)
    state.apply(SessionDown(link.a, link.b))
    # An unrelated policy edit re-derives the member's pairs; the downed
    # session must stay down.
    state.apply(PolicyEdit(ixp=ixp, member=link.a))
    assert graph.get_link(link.a, link.b) is None
    state.apply(SessionUp(link.a, link.b))
    assert graph.get_link(link.a, link.b) == link


def test_prefix_churn_only_dirties_the_origin(tiny_baseline):
    graph, route_servers = copy.deepcopy(
        (tiny_baseline["graph"], tiny_baseline["route_servers"]))
    state = ReplayState(graph, route_servers)
    asn = next(a for a in graph.asns() if graph.get_as(a).prefixes)
    effect = state.apply(PrefixChurn(asn=asn, prefix="198.51.100.0/24"))
    assert not effect.touches_index
    assert effect.dirty_origins == {asn}
    # Announcing the same prefix again is impossible.
    with pytest.raises(ImpossibleEventError, match="already announced"):
        state.apply(PrefixChurn(asn=asn, prefix="198.51.100.0/24"))
    effect = state.apply(PrefixChurn(asn=asn, prefix="198.51.100.0/24",
                                     withdraw=True))
    assert effect.dirty_origins == {asn}


# ---------------------------------------------------------------------------
# pipeline integration: fingerprints, stage, caching
# ---------------------------------------------------------------------------


def test_timeline_fingerprint_isolates_the_stage():
    base = ScenarioRun(scenario="europe2013",
                       config=get_scenario("europe2013").config("tiny"))
    spec = get_scenario("europe2013-churn")
    event = ScenarioRun(scenario="europe2013-churn",
                        config=spec.config("tiny"))
    # Upstream stages share fingerprints... they cannot: the scenario
    # name salts every stage.  What must hold: within one scenario, the
    # timeline namespace only feeds the timeline stage.
    flipped = ScenarioRun(
        scenario=spec.with_overrides(
            timeline=TimelineSpec(family="failover", length=8,
                                  seed=20130508)),
        config=spec.config("tiny"))
    for stage in ("topology", "ixps", "propagation"):
        assert event.fingerprint(stage) == flipped.fingerprint(stage)
    assert event.fingerprint("timeline") != flipped.fingerprint("timeline")
    assert base.fingerprint("timeline") != event.fingerprint("timeline")


def test_timeline_stage_is_noop_without_a_timeline():
    run = ScenarioRun(scenario="europe2013",
                      config=get_scenario("europe2013").config("tiny"))
    assert run.spec.timeline is None
    assert run.timeline() is None


def test_timeline_stage_replays_and_reports(tiny_baseline):
    report = tiny_baseline["run"].timeline()
    assert len(report.events) == 8
    assert len(report.reports) == 8
    rows = report.rows()
    assert {"event", "affected", "recomputed", "reused",
            "affected_fraction", "links_changed", "reindex", "seconds"} \
        <= set(rows[0])
    for event_report in report.reports:
        assert event_report.recomputed + event_report.reused \
            == event_report.total


def test_report_records_how_the_index_changed(tiny_baseline):
    """A splice, the splice's fallback to a full rebuild (an endpoint
    losing its last link leaves the interned node set) and an untouched
    index are each reported; the rebuilt state still matches a
    from-scratch propagation."""
    graph = tiny_baseline["graph"]
    route_servers = tiny_baseline["route_servers"]
    record_at = tiny_baseline["record_at"]
    record_alt = tiny_baseline["record_alt"]
    stub = next(asn for asn in sorted(graph.asns())
                if graph.degree(asn) == 1 and graph.get_as(asn).prefixes)
    (neighbour,) = graph.neighbours(stub)
    spliced = next(link for link in sorted(graph.links(),
                                           key=lambda l: l.endpoints)
                   if graph.degree(link.a) > 1 and graph.degree(link.b) > 1)
    events = [SessionDown(spliced.a, spliced.b),
              SessionDown(stub, neighbour),
              PrefixChurn(asn=stub, prefix="198.51.100.0/24")]
    replay = TimelineReplay(graph, route_servers, tiny_baseline["baseline"],
                            record_at, record_alt)
    specs = []
    for event in events:
        replay.apply(event)
        specs.append({origin: replay.result.origin_spec(origin)
                      for origin in replay.result.origins()})
    assert [r.reindex for r in replay.reports] == ["splice", "rebuild", None]
    report = replay.replay([])
    assert [row["reindex"] for row in report.rows()] \
        == ["splice", "rebuild", None]
    # Origin specs carry over between events (same objects) until an
    # event dirties one: the prefix churn re-derives the list.
    assert all(specs[1][origin] is spec
               for origin, spec in specs[0].items())
    assert specs[2][stub] != specs[1][stub]

    rebuild_graph, rebuild_servers = copy.deepcopy((graph, route_servers))
    rebuild_state = ReplayState(rebuild_graph, rebuild_servers)
    for event in events:
        rebuild_state.apply(event)
    _, full = rebuild_propagation(rebuild_graph, rebuild_servers,
                                  record_at, record_alt)
    assert_results_identical(replay.result, full, "reindex")


# ---------------------------------------------------------------------------
# the property: delta replay == from-scratch rebuild, bit for bit
# ---------------------------------------------------------------------------


def random_events(rng, graph, route_servers, length):
    """A randomized mixed event sequence, drawn against evolving state
    (an auxiliary ReplayState keeps successive draws meaningful)."""
    state = ReplayState(*copy.deepcopy((graph, route_servers)))
    roster = sorted(route_servers)
    events = []
    while len(events) < length:
        kind = rng.randrange(6)
        if kind == 0:
            links = sorted(state.graph.links(), key=lambda l: l.endpoints)
            link = links[rng.randrange(len(links))]
            event = SessionDown(link.a, link.b)
        elif kind == 1:
            if not state.down_links:
                continue
            key = sorted(state.down_links)[rng.randrange(
                len(state.down_links))]
            event = SessionUp(*key)
        elif kind == 2:
            ixp = roster[rng.randrange(len(roster))]
            members = state.route_servers[ixp].members()
            if not members:
                continue
            member = members[rng.randrange(len(members))]
            excluded = [m for m in members if m != member][:2]
            event = PolicyEdit(ixp=ixp, member=member,
                               listed=tuple(excluded))
        elif kind == 3:
            ixp = roster[rng.randrange(len(roster))]
            candidates = sorted(
                set(state.graph.members_of_ixp(ixp))
                - state.route_servers[ixp].member_set())
            if not candidates:
                continue
            event = MemberJoin(ixp=ixp,
                               member=candidates[rng.randrange(
                                   len(candidates))])
        elif kind == 4:
            ixp = roster[rng.randrange(len(roster))]
            members = state.route_servers[ixp].members()
            if len(members) <= 2:
                continue
            event = MemberLeave(ixp=ixp,
                                member=members[rng.randrange(len(members))])
        else:
            asns = state.graph.asns()
            asn = asns[rng.randrange(len(asns))]
            event = PrefixChurn(asn=asn,
                                prefix=f"198.18.{len(events)}.0/24",
                                withdraw=rng.random() < 0.3)
        state.apply(event)
        events.append(event)
    return events


def assert_results_identical(mine, theirs, label):
    assert mine.visible_links() == theirs.visible_links(), label
    mine_map = mine.recorded_fragments()
    theirs_map = theirs.recorded_fragments()
    assert list(mine_map) == list(theirs_map), label
    assert [mine.origin_spec(origin) for origin in mine_map] \
        == [theirs.origin_spec(origin) for origin in theirs_map], label
    for origin in mine_map:
        assert fragments_equivalent(mine_map[origin], theirs_map[origin]), \
            (label, origin)


@pytest.mark.parametrize("backend", PRODUCTION_BACKENDS)
def test_random_event_sequence_delta_matches_rebuild(tiny_baseline, backend):
    graph = tiny_baseline["graph"]
    route_servers = tiny_baseline["route_servers"]
    record_at = tiny_baseline["record_at"]
    record_alt = tiny_baseline["record_alt"]
    events = random_events(random.Random(20130508 + len(backend)),
                           graph, route_servers, length=6)

    replay = TimelineReplay(graph, route_servers, tiny_baseline["baseline"],
                            record_at, record_alt)
    rebuild_graph, rebuild_servers = copy.deepcopy((graph, route_servers))
    rebuild_state = ReplayState(rebuild_graph, rebuild_servers)
    for index, event in enumerate(events):
        # The replay's recomputes run on the pinned kernel; the rebuild
        # it is checked against runs the production rule.
        with forced_kernel(backend):
            report = replay.apply(event)
        rebuild_state.apply(event)
        _, full = rebuild_propagation(rebuild_graph, rebuild_servers,
                                      record_at, record_alt)
        assert_results_identical(replay.result, full,
                                 (backend, index, event))
        assert report.recomputed + report.reused == report.total


@pytest.mark.parametrize("family", sorted(EVENT_FAMILIES))
def test_registered_family_delta_matches_rebuild(tiny_baseline, family):
    """Every registered family's full timeline is delta-replayed and
    checked against one final from-scratch rebuild (per-prefix checks
    run in the randomized test above)."""
    graph = tiny_baseline["graph"]
    route_servers = tiny_baseline["route_servers"]
    record_at = tiny_baseline["record_at"]
    record_alt = tiny_baseline["record_alt"]
    events = build_timeline(TimelineSpec(family=family, length=8,
                                         seed=20130508),
                            graph, route_servers)
    replay = TimelineReplay(graph, route_servers, tiny_baseline["baseline"],
                            record_at, record_alt)
    replay.replay(events)
    rebuild_graph, rebuild_servers = copy.deepcopy((graph, route_servers))
    rebuild_state = ReplayState(rebuild_graph, rebuild_servers)
    for event in events:
        rebuild_state.apply(event)
    _, full = rebuild_propagation(rebuild_graph, rebuild_servers,
                                  record_at, record_alt)
    assert_results_identical(replay.result, full, family)


# ---------------------------------------------------------------------------
# impossible events: a typed error, raised before any mutation
# ---------------------------------------------------------------------------


def _first_link(graph):
    return sorted(graph.links(), key=lambda link: link.endpoints)[0]


def _no_link(replay):
    asns = replay.graph.asns()
    a, b = next((a, b) for a in asns for b in asns
                if a < b and not replay.graph.has_link(a, b))
    return SessionDown(a, b)


def _up_never_down(replay):
    link = _first_link(replay.graph)
    return SessionUp(link.a, link.b)


def _up_link_present(replay):
    # The flapped session is back in the graph (added outside the event
    # stream) while the flap registry still holds it.
    link = _first_link(replay.graph)
    replay.apply(SessionDown(link.a, link.b))
    replay.graph.add_link(link)
    return SessionUp(link.a, link.b)


def _rs_outsider(replay):
    ixp = sorted(replay.route_servers)[0]
    route_server = replay.route_servers[ixp]
    return ixp, next(asn for asn in replay.graph.asns()
                     if not route_server.is_member(asn))


def _rs_member(replay):
    ixp = sorted(replay.route_servers)[0]
    return ixp, replay.route_servers[ixp].members()[0]


def _announcer(replay):
    return next(node for node in replay.graph.nodes() if node.prefixes)


IMPOSSIBLE = {
    "down-missing-link": (_no_link, "no link to take down"),
    "up-never-down": (_up_never_down, "no session down to restore"),
    "up-link-present": (_up_link_present, "link already present"),
    "edit-non-member": (lambda replay: PolicyEdit(*_rs_outsider(replay)),
                        "not an RS member"),
    "join-member": (lambda replay: MemberJoin(*_rs_member(replay)),
                    "already an RS member"),
    "leave-non-member": (lambda replay: MemberLeave(*_rs_outsider(replay)),
                         "not an RS member"),
    "withdraw-missing-prefix": (
        lambda replay: PrefixChurn(asn=_announcer(replay).asn,
                                   prefix="203.0.113.0/24", withdraw=True),
        "prefix not announced"),
    "duplicate-announce": (
        lambda replay: PrefixChurn(
            asn=_announcer(replay).asn,
            prefix=str(_announcer(replay).prefixes[0])),
        "prefix already announced"),
}


def state_pickle(state):
    return pickle.dumps((state.graph, state.route_servers, state.down_links))


@pytest.mark.parametrize("case", sorted(IMPOSSIBLE))
def test_impossible_event_raises_before_any_mutation(tiny_baseline, case):
    make, reason = IMPOSSIBLE[case]
    replay = TimelineReplay(tiny_baseline["graph"],
                            tiny_baseline["route_servers"],
                            tiny_baseline["baseline"],
                            tiny_baseline["record_at"],
                            tiny_baseline["record_alt"])
    event = make(replay)
    before = state_pickle(replay.state)
    reports, result = list(replay.reports), replay.result
    with pytest.raises(ImpossibleEventError, match=reason) as error:
        replay.apply(event)
    assert error.value.event == event
    assert isinstance(error.value, ValueError)
    assert state_pickle(replay.state) == before
    assert replay.reports == reports and replay.result is result
    # The replay goes on with the next valid event.
    report = replay.apply(PrefixChurn(asn=_announcer(replay).asn,
                                      prefix="198.51.100.0/24"))
    assert replay.reports == reports + [report]
    assert report.recomputed == 1

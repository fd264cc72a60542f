"""Event timelines and delta replay: semantics, determinism, and the
bit-identity of incremental replay against from-scratch rebuilds."""

import copy
import pickle
import random

import pytest

from repro.pipeline.run import ScenarioRun
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
    rebuild_propagation,
    record_sets,
)
from repro.scenarios.spec import get_scenario, scenario_names
from repro.topology.as_graph import LinkType

from tests.oracle import delta as delta_oracle
from tests.oracle.events import (
    checked_replay,
    random_events,
    rebuild_differences,
)
from tests.oracle.kernels import KERNELS, forced_kernel
from tests.oracle.propagation import origin_spec
from tests.oracle.blocks import fragments_equivalent

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
    assert sorted(EVENT_FAMILIES) == ["churn", "failover", "flap-storm"]
    names = scenario_names()
    for family in sorted(EVENT_FAMILIES):
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
        specs.append({origin: origin_spec(replay.result, origin)
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


def assert_results_identical(mine, theirs, label):
    assert mine.visible_links() == theirs.visible_links(), label
    mine_map = mine.recorded_fragments()
    theirs_map = theirs.recorded_fragments()
    assert list(mine_map) == list(theirs_map), label
    assert [origin_spec(mine, origin) for origin in mine_map] \
        == [origin_spec(theirs, origin) for origin in theirs_map], label
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


def test_churn_witness_at_bench_matches_rebuild_after_every_event(
        bench_run):
    """The bench churn timeline whose event 14 (AMS-IX 5032 leaving)
    removed RS links that carried only losing candidates into some
    observers: a scan of the recorded paths missed the origins whose
    rows those candidates had placed.  Every event's blocks, row order
    included, equal a rebuild's."""
    propagation = bench_run.artifact("propagation")
    graph = bench_run.artifact("topology").graph
    route_servers = bench_run.artifact("ixps")["route_servers"]
    events = build_timeline(TimelineSpec("churn", 24, 20130508), graph,
                            route_servers)
    assert events[14] == MemberLeave(ixp="AMS-IX", member=5032)
    checked_replay(graph, route_servers, propagation["propagation"],
                   *record_sets(propagation), events, "churn witness")


# ---------------------------------------------------------------------------
# repairs restore, policy edits taint only re-bagged edges
# ---------------------------------------------------------------------------


def new_replay(baseline):
    return TimelineReplay(baseline["graph"], baseline["route_servers"],
                          baseline["baseline"], baseline["record_at"],
                          baseline["record_alt"])


def spliceable_links(graph):
    """Links whose removal leaves both endpoints linked (the index is
    spliced, not rebuilt), in endpoint order."""
    return [link for link in sorted(graph.links(), key=lambda l: l.endpoints)
            if graph.degree(link.a) > 1 and graph.degree(link.b) > 1]


def assert_matches_rebuild(replay, events, baseline, label):
    state = ReplayState(*copy.deepcopy((baseline["graph"],
                                        baseline["route_servers"])))
    for event in events:
        state.apply(event)
    assert rebuild_differences(replay.result, state, baseline["record_at"],
                               baseline["record_alt"]) == [], label


def test_repair_restores_the_blocks_from_before_the_down(tiny_baseline):
    replay = new_replay(tiny_baseline)
    link = next(link for link in spliceable_links(replay.graph)
                if link.link_type is LinkType.C2P)
    context, before = replay.context, replay.result.recorded_fragments()
    down = replay.apply(SessionDown(link.a, link.b))
    assert down.recomputed > 0 and not down.restored
    up = replay.apply(SessionUp(link.a, link.b))
    assert up.restored and up.reindex == "splice"
    assert (up.recomputed, up.affected, up.reused) == (0, 0, up.total)
    after = replay.result.recorded_fragments()
    assert list(after) == list(before)
    for origin, (best, offered) in before.items():
        assert after[origin][0] is best and after[origin][1] is offered
    # The saved context comes back too, with its compiled plan.
    assert replay.context is context
    assert [row["restored"] for row in replay.replay([]).rows()] \
        == [False, True]


def test_nested_repairs_restore_and_crossed_ones_take_the_delta_path(
        tiny_baseline):
    first, second = spliceable_links(tiny_baseline["graph"])[:2]
    down_first = SessionDown(first.a, first.b)
    down_second = SessionDown(second.a, second.b)
    up_first = SessionUp(first.a, first.b)
    up_second = SessionUp(second.a, second.b)
    for events, restored in (
            ([down_first, down_second, up_second, up_first],
             [False, False, True, True]),
            ([down_first, down_second, up_first, up_second],
             [False, False, False, False])):
        replay = new_replay(tiny_baseline)
        for count, event in enumerate(events, 1):
            replay.apply(event)
            assert_matches_rebuild(replay, events[:count], tiny_baseline,
                                   (events, count))
        assert [report.restored for report in replay.reports] == restored


def test_restore_computes_only_a_new_origin(tiny_baseline):
    """An AS that withdrew its only prefix before the down and announces
    one before the repair is an origin the saved result lacks."""
    graph = tiny_baseline["graph"]
    newcomer = next(asn for asn in sorted(graph.asns())
                    if len(graph.get_as(asn).prefixes) == 1)
    link = spliceable_links(graph)[0]
    events = [PrefixChurn(asn=newcomer,
                          prefix=str(graph.get_as(newcomer).prefixes[0]),
                          withdraw=True),
              SessionDown(link.a, link.b),
              PrefixChurn(asn=newcomer, prefix="198.51.100.0/24"),
              SessionUp(link.a, link.b)]
    replay = new_replay(tiny_baseline)
    replay.replay(events[:2])
    assert newcomer not in replay.result.recorded_fragments()
    replay.replay(events[2:])
    up = replay.reports[-1]
    assert up.restored and up.recomputed == 1
    assert newcomer in replay.result.recorded_fragments()
    assert_matches_rebuild(replay, events, tiny_baseline, "new origin")


def test_repair_after_a_rebuilding_down_falls_back(tiny_baseline):
    """A down that takes an endpoint's last link rebuilds the index on a
    new interner; the repair cannot match it by identity and takes the
    delta path."""
    graph = tiny_baseline["graph"]
    stub = next(asn for asn in sorted(graph.asns())
                if graph.degree(asn) == 1 and graph.get_as(asn).prefixes)
    (neighbour,) = graph.neighbours(stub)
    events = [SessionDown(stub, neighbour), SessionUp(stub, neighbour)]
    replay = new_replay(tiny_baseline)
    replay.replay(events)
    assert [(r.reindex, r.restored) for r in replay.reports] \
        == [("rebuild", False), ("rebuild", False)]
    assert_matches_rebuild(replay, events, tiny_baseline, "rebuild")


def rs_member_links(graph, route_servers):
    """``(ixp, member, RS links of the member tagged with that IXP)`` of
    the first member (in IXP and ASN order) holding any."""
    for ixp in sorted(route_servers):
        for member in route_servers[ixp].members():
            links = [link for link in graph.links(LinkType.RS_P2P)
                     if link.ixp == ixp and member in link.endpoints]
            if links:
                return ixp, member, links
    raise AssertionError("no RS member holds an RS link")


def test_reinstalled_policy_recomputes_nothing(tiny_baseline):
    replay = new_replay(tiny_baseline)
    ixp, member, _links = rs_member_links(replay.graph, replay.route_servers)
    policy = replay.route_servers[ixp].member_policy(member)
    context = replay.context
    event = PolicyEdit(ixp=ixp, member=member, mode=policy.mode,
                       listed=tuple(sorted(policy.listed)))
    report = replay.apply(event)
    assert (report.recomputed, report.rebagged, report.links_changed,
            report.reindex) == (0, 0, 0, None)
    assert replay.context is context
    assert_matches_rebuild(replay, [event], tiny_baseline, "reinstall")


def test_policy_edit_recomputes_only_origins_crossing_rebagged_edges(
        tiny_baseline):
    """Excluding an AS that is not a member changes the member's
    communities at that IXP and no link: exactly the origins whose
    recorded paths cross one of its RS links there are recomputed."""
    replay = new_replay(tiny_baseline)
    ixp, member, links = rs_member_links(replay.graph, replay.route_servers)
    route_server = replay.route_servers[ixp]
    outsider = next(asn for asn in sorted(replay.graph.asns())
                    if not route_server.is_member(asn))
    prior = replay.result
    event = PolicyEdit(ixp=ixp, member=member, listed=(outsider,))
    report = replay.apply(event)
    assert report.links_changed == 0
    assert report.rebagged == len(links)
    expected = delta_oracle.origins_touching(
        prior, pairs=[(link.a, link.b) for link in links])
    assert expected
    prior_map = prior.recorded_fragments()
    recomputed = {origin for origin, (best, _offered)
                  in replay.result.recorded_fragments().items()
                  if best is not prior_map[origin][0]}
    assert recomputed == expected
    assert report.recomputed == len(expected)
    assert_matches_rebuild(replay, [event], tiny_baseline, "rebag")


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
    # The replay goes on with the next valid event (a new prefix of an
    # existing origin: its blocks stay).
    report = replay.apply(PrefixChurn(asn=_announcer(replay).asn,
                                      prefix="198.51.100.0/24"))
    assert replay.reports == reports + [report]
    assert report.recomputed == 0


# ---------------------------------------------------------------------------
# prefix churn: propagation never reads an origin's prefixes
# ---------------------------------------------------------------------------


def _prefix_churn_case(case, graph):
    """``(events, recomputes per event, origin that drops out or None)``
    of one prefix-churn case on *graph*."""
    several = next(node for node in graph.nodes() if len(node.prefixes) > 1)
    single = next(node for node in graph.nodes() if len(node.prefixes) == 1)
    withdraw_last = PrefixChurn(asn=single.asn, prefix=str(single.prefixes[0]),
                                withdraw=True)
    if case == "announce-on-origin":
        return ([PrefixChurn(asn=several.asn, prefix="198.51.100.0/24")],
                [0], None)
    if case == "withdraw-one-of-several":
        return ([PrefixChurn(asn=several.asn,
                             prefix=str(several.prefixes[0]),
                             withdraw=True)], [0], None)
    if case == "withdraw-last-prefix":
        return [withdraw_last], [0], single.asn
    # The origin drops out, then comes back as a new one.
    return ([withdraw_last,
             PrefixChurn(asn=single.asn, prefix="198.51.100.0/24")],
            [0, 1], None)


@pytest.mark.parametrize("case", ("announce-on-origin",
                                  "withdraw-one-of-several",
                                  "withdraw-last-prefix",
                                  "announce-on-prefixless-as"))
def test_prefix_churn_recomputes_only_new_origins(tiny_baseline, case):
    """A prefix announced or withdrawn re-records its origin's spec and
    keeps its blocks: only an AS that had no prefixes is computed, and
    an origin that withdraws its last prefix drops out.  The result
    equals a rebuild after every event."""
    graph = tiny_baseline["graph"]
    events, recomputes, dropped = _prefix_churn_case(case, graph)
    baseline = tiny_baseline["baseline"]
    replay = checked_replay(graph, tiny_baseline["route_servers"], baseline,
                            tiny_baseline["record_at"],
                            tiny_baseline["record_alt"], events, case)
    assert [report.recomputed for report in replay.reports] == recomputes
    assert all(report.affected == 0 for report in replay.reports)
    origins = replay.result.recorded_fragments()
    if dropped is not None:
        assert dropped not in origins
        assert len(origins) == len(baseline.recorded_fragments()) - 1
    else:
        assert list(origins) == list(baseline.recorded_fragments())

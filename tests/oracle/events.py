"""Event timelines checked against from-scratch rebuilds.

:func:`random_events` draws a mixed event sequence against evolving
state; :func:`rebuild_differences` compares a replay's result with a
from-scratch propagation of the same state, and
:func:`checked_replay` replays a timeline and compares after every
event.  The tier-1 suite runs them at the ``tiny`` size and on one
``bench`` witness, CI's delta-equivalence step at ``bench``.
"""

from __future__ import annotations

import copy
from typing import List

from repro.scenarios.events import (
    ImpossibleEventError,
    MemberJoin,
    MemberLeave,
    PolicyEdit,
    PrefixChurn,
    ReplayState,
    SessionDown,
    SessionUp,
    TimelineReplay,
    rebuild_propagation,
)

from tests.oracle.blocks import fragments_equivalent
from tests.oracle.propagation import origin_spec


def random_events(rng, graph, route_servers, length):
    """A randomized mixed event sequence, drawn against evolving state
    (an auxiliary ReplayState keeps successive draws meaningful; a draw
    that cannot apply is skipped).  Prefix churn announces a fresh
    prefix, or (30% of its draws) withdraws one the AS announces."""
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
            if rng.random() < 0.3:
                announced = state.graph.get_as(asn).prefixes
                if not announced:
                    continue
                event = PrefixChurn(
                    asn=asn, withdraw=True,
                    prefix=str(announced[rng.randrange(len(announced))]))
            else:
                event = PrefixChurn(asn=asn,
                                    prefix=f"198.18.{len(events)}.0/24")
        try:
            state.apply(event)
        except ImpossibleEventError:
            continue
        events.append(event)
    return events


def rebuild_differences(result, state: ReplayState, record_at,
                        record_alt) -> List[str]:
    """Where *result* differs from a from-scratch propagation of
    *state*: origin order, origin specs, and every origin's best and
    offered blocks row for row.  Empty means identical."""
    _, full = rebuild_propagation(state.graph, state.route_servers,
                                  record_at, record_alt)
    mine = result.recorded_fragments()
    theirs = full.recorded_fragments()
    if list(mine) != list(theirs):
        return ["origin order differs"]
    problems = [f"origin {origin}: spec differs" for origin in mine
                if origin_spec(result, origin) != origin_spec(full, origin)]
    problems += [f"origin {origin}: blocks differ" for origin in mine
                 if not fragments_equivalent(mine[origin], theirs[origin])]
    return problems


def checked_replay(graph, route_servers, baseline, record_at, record_alt,
                   events, label) -> TimelineReplay:
    """Replay *events* over *baseline*, asserting after every event that
    the result equals a rebuild (:func:`rebuild_differences`)."""
    replay = TimelineReplay(graph, route_servers, baseline, record_at,
                            record_alt)
    state = ReplayState(*copy.deepcopy((graph, route_servers)))
    for position, event in enumerate(events):
        replay.apply(event)
        state.apply(event)
        problems = rebuild_differences(replay.result, state, record_at,
                                       record_alt)
        assert not problems, (label, position, event, problems[:3])
    return replay

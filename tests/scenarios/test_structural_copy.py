"""Structural replay copies: ``ASGraph.copy`` and ``RouteServer.copy``
against ``copy.deepcopy`` (the oracle), and the independence every
replay mutator relies on.

A deepcopy rebuilds every set from a list, so its sets may iterate in
another order than the original's; the copies are compared with it
field by field (set equality), and pickles are only compared between
states of one object.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.bgp.prefix import Prefix
from repro.scenarios.events import (
    EVENT_FAMILIES,
    TimelineReplay,
    TimelineSpec,
    build_timeline,
)
from repro.topology.as_graph import ASLink, LinkType

#: A 32-bit ASN no tiny scenario uses: registering it takes an alias.
ASN_32 = 4_200_000_123


def graph_state(graph):
    """Everything a graph holds: its pickle (nodes, links, version) and
    the typed neighbour map, which pickles leave out."""
    return (pickle.dumps(graph),
            {asn: dict(related) for asn, related in graph._neighbours.items()})


def pair_state(graph, route_servers):
    return graph_state(graph), pickle.dumps(route_servers)


def copies(graph, route_servers):
    return graph.copy(), {name: route_server.copy()
                          for name, route_server in route_servers.items()}


def test_graph_copy_equals_deepcopy(churn_baseline):
    graph = churn_baseline[0]
    mine, theirs = graph.copy(), copy.deepcopy(graph)
    assert list(mine._nodes.items()) == list(theirs._nodes.items())
    assert list(mine._links.items()) == list(theirs._links.items())
    assert mine._neighbours == theirs._neighbours
    assert mine._version == theirs._version
    assert mine._relationship_cache is None
    # Frozen leaves are shared, mutable containers are not.
    for asn, node in graph._nodes.items():
        clone = mine.get_as(asn)
        assert clone is not node
        assert clone.prefixes is not node.prefixes
        assert clone.ixps is not node.ixps
        assert clone.rs_memberships is not node.rs_memberships
        assert all(a is b for a, b in zip(clone.prefixes, node.prefixes))
    assert all(mine._links[key] is link
               for key, link in graph._links.items())
    assert all(mine._neighbours[asn] is not related
               for asn, related in graph._neighbours.items())


def test_route_server_copy_equals_deepcopy(churn_baseline):
    for name, route_server in churn_baseline[1].items():
        mine, theirs = route_server.copy(), copy.deepcopy(route_server)
        assert set(vars(mine)) == set(vars(theirs))
        for field, value in vars(theirs).items():
            if field == "mapper":
                assert vars(mine.mapper) == vars(value), name
            else:
                assert getattr(mine, field) == value, (name, field)
        assert list(mine._rib) == list(theirs._rib)
        assert [list(routes.items()) for routes in mine._rib.values()] == \
            [list(routes.items()) for routes in theirs._rib.values()]
        assert mine.mapper is not route_server.mapper
        assert all(mine._rib[prefix] is not routes
                   for prefix, routes in route_server._rib.items())


def _unlinked_pair(graph):
    asns = graph.asns()
    return next((a, b) for a in asns for b in asns
                if a < b and not graph.has_link(a, b))


def _rs_member(route_servers):
    name = sorted(route_servers)[0]
    route_server = route_servers[name]
    return name, route_server, route_server.members()[0]


def _add_link(graph, route_servers):
    graph.add_link(ASLink(*_unlinked_pair(graph), LinkType.P2P))


def _remove_link(graph, route_servers):
    link = sorted(graph.links(), key=lambda link: link.endpoints)[0]
    graph.remove_link(link.a, link.b)


def _add_p2p(graph, route_servers):
    a, b = _unlinked_pair(graph)
    graph.add_p2p(a, b, ixp=sorted(route_servers)[0], multilateral=True)


def _prefixes(graph, route_servers):
    graph.get_as(graph.asns()[0]).prefixes.append(
        Prefix.parse("198.51.100.0/24"))


def _ixps(graph, route_servers):
    graph.get_as(graph.asns()[0]).ixps.add("IXP-NEW")


def _rs_memberships(graph, route_servers):
    graph.get_as(graph.asns()[0]).rs_memberships.add("IXP-NEW")


def _add_member(graph, route_servers):
    _name, route_server, _member = _rs_member(route_servers)
    outsider = next(asn for asn in graph.asns()
                    if not route_server.is_member(asn))
    route_server.add_member(outsider)


def _remove_member(graph, route_servers):
    _name, route_server, member = _rs_member(route_servers)
    route_server.remove_member(member)


def _announce(graph, route_servers):
    _name, route_server, member = _rs_member(route_servers)
    route_server.announce(member, Prefix.parse("198.51.100.0/24"))


def _withdraw(graph, route_servers):
    _name, route_server, member = _rs_member(route_servers)
    entry = route_server.routes_from_member(member)[0]
    assert route_server.withdraw(member, entry.prefix)


def _register_32bit(graph, route_servers):
    _name, route_server, _member = _rs_member(route_servers)
    route_server.mapper.register(ASN_32)


MUTATORS = {
    "add_link": _add_link,
    "remove_link": _remove_link,
    "add_p2p": _add_p2p,
    "node_prefixes": _prefixes,
    "node_ixps": _ixps,
    "node_rs_memberships": _rs_memberships,
    "add_member": _add_member,
    "remove_member": _remove_member,
    "announce": _announce,
    "withdraw": _withdraw,
    "mapper_register_32bit": _register_32bit,
}


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_mutating_a_copy_leaves_the_original_untouched(churn_baseline,
                                                        mutator):
    graph, route_servers = copy.deepcopy(churn_baseline[:2])
    before = pair_state(graph, route_servers)
    clone = copies(graph, route_servers)
    clone_before = pair_state(*clone)
    MUTATORS[mutator](*clone)
    assert pair_state(*clone) != clone_before, "the mutator changed nothing"
    assert pair_state(graph, route_servers) == before


@pytest.mark.parametrize("family", sorted(EVENT_FAMILIES))
def test_replay_leaves_the_baseline_pickle_unchanged(churn_baseline, family):
    graph, route_servers, result, record_at, record_alt = churn_baseline
    before = pickle.dumps((graph, route_servers))
    events = build_timeline(TimelineSpec(family=family, length=8,
                                         seed=20130508),
                            graph, route_servers)
    replay = TimelineReplay(graph, route_servers, result, record_at,
                            record_alt)
    replay.replay(events)
    assert len(replay.reports) == len(events)
    assert pickle.dumps((graph, route_servers)) == before

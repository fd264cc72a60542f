"""The graph's typed adjacency against the link-object walk.

Differential: 200 seeded random mutations of the europe2013 tiny graph
(link removal and re-adding, link-type replacement, c2p direction flips,
new and replaced ASes), each followed by a comparison of every query for
every AS with :mod:`tests.oracle.topology`; every twentieth mutation the
comparison is repeated on a pickle round trip and on a deep copy, whose
typed map is rebuilt from the links, and the graph's CSR index build is
compared field by field with the record oracle.  Plus the
relationship-map snapshot contract: identity-stable per graph version,
read-only, picklable.
"""

from __future__ import annotations

import copy
import pickle
import random
from typing import Iterator

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.spec import get_scenario
from repro.topology.as_graph import ASGraph, ASLink, ASNode
from repro.topology.customer_cone import customer_cone
from repro.topology.relationships import LinkType, RelationshipMap

from tests.oracle.topology import (
    differences,
    graph_record_index,
    index_differences,
)

MUTATIONS = 200
ROUND_TRIP_EVERY = 20


@pytest.fixture(scope="module")
def tiny_graph() -> ASGraph:
    run = ScenarioRun(get_scenario("europe2013").config("tiny"),
                      scenario="europe2013", cache=ArtifactCache())
    return run.artifact("topology").graph


def _mutations(graph: ASGraph, rng: random.Random) -> Iterator[str]:
    """Apply random mutations one at a time, yielding a description
    after each."""
    next_asn = max(graph.asns()) + 1
    while True:
        kind = rng.choice(("remove-readd", "retype", "flip", "add-as"))
        if kind == "remove-readd":
            link = rng.choice(graph.links())
            assert graph.remove_link(link.a, link.b)
            yield f"remove {link}"
            graph.add_link(link)
            yield f"re-add {link}"
        elif kind == "retype":
            link = rng.choice(graph.links())
            link_type = rng.choice(
                [t for t in LinkType if t is not link.link_type])
            a, b = (link.b, link.a) if rng.random() < 0.5 else (link.a, link.b)
            ixp = link.ixp if link_type.is_peering else None
            yield f"retype to {graph.add_link(ASLink(a, b, link_type, ixp))}"
        elif kind == "flip":
            link = rng.choice(graph.links(LinkType.C2P))
            flipped = ASLink(link.b, link.a, LinkType.C2P)
            yield f"flip to {graph.add_link(flipped)}"
        elif rng.random() < 0.5:
            # Replace an existing AS: its links and typed map stay.
            asn = rng.choice(graph.asns())
            graph.add_as(ASNode(asn=asn, name=f"replaced-{asn}"))
            yield f"replace AS{asn}"
        else:
            provider = rng.choice(graph.asns())
            graph.add_as(ASNode(asn=next_asn))
            yield f"add {graph.add_c2p(next_asn, provider)}"
            next_asn += 1


def _rs_communities(asn: int, ixp: str) -> frozenset:
    """A route-server community provider: one community per exporter,
    none for every seventh ASN."""
    if asn % 7 == 0:
        return frozenset()
    return frozenset({Community(len(ixp), asn & 0xFFFF)})


def _has_provider_loop(graph: ASGraph) -> bool:
    return any(asn in customer_cone(graph, customer)
               for asn in graph.asns() for customer in graph.customers(asn))


def test_typed_adjacency_matches_link_walk_under_mutation(tiny_graph):
    graph = copy.deepcopy(tiny_graph)
    assert differences(graph) == []
    loops = 0
    mutations = _mutations(graph, random.Random(20130501))
    for step, what in zip(range(MUTATIONS), mutations):
        assert differences(graph) == [], f"step {step}: {what}"
        if step % ROUND_TRIP_EVERY == ROUND_TRIP_EVERY - 1:
            restored = pickle.loads(pickle.dumps(graph))
            assert differences(restored) == [], f"pickled at step {step}"
            copied = copy.deepcopy(graph)
            assert differences(copied) == [], f"deep-copied at step {step}"
            assert restored.version == copied.version == graph.version
            assert index_differences(
                graph.build_index(_rs_communities),
                graph_record_index(graph, _rs_communities)) == [], \
                f"index at step {step}"
            loops += _has_provider_loop(graph)
    # The walk reaches the case a memoised cone walk gets wrong.
    assert loops
    # An AS without neighbours.
    isolated = max(graph.asns()) + 1
    graph.add_as(ASNode(asn=isolated))
    assert customer_cone(graph, isolated) == {isolated}
    assert graph.relationship(isolated, graph.asns()[0]) is None
    assert differences(graph) == []


# -- the relationship-map snapshot ---------------------------------------------


@pytest.fixture
def graph() -> ASGraph:
    g = ASGraph()
    for asn in (10, 20, 30, 40):
        g.add_as(ASNode(asn=asn))
    g.add_c2p(10, 20)
    g.add_c2p(20, 30)
    g.add_p2p(20, 40, ixp="DE-CIX", multilateral=True)
    return g


def test_snapshot_is_identity_stable_per_version(graph):
    first = graph.relationship_map()
    assert isinstance(first, RelationshipMap)
    assert graph.relationship_map() is first
    assert not graph.remove_link(10, 40)  # no such link: no new version
    assert graph.relationship_map() is first

    graph.remove_link(10, 20)
    removed = graph.relationship_map()
    assert removed is not first
    assert (10, 20) not in removed and (10, 20) in first

    graph.add_c2p(10, 20)
    readded = graph.relationship_map()
    assert readded is not removed
    assert readded == first
    # Re-adding moved the link to the end of link order.
    assert list(readded)[-2:] == [(10, 20), (20, 10)]


def test_snapshot_is_read_only(graph):
    snapshot = graph.relationship_map()
    writes = (
        lambda m: m.__setitem__((10, 30), Relationship.PEER),
        lambda m: m.__delitem__((10, 20)),
        lambda m: m.update({}),
        lambda m: m.setdefault((10, 30), Relationship.PEER),
        lambda m: m.pop((10, 20)),
        lambda m: m.popitem(),
        lambda m: m.clear(),
    )
    for write in writes:
        with pytest.raises(TypeError):
            write(snapshot)
    with pytest.raises(TypeError):
        snapshot |= {}
    assert snapshot == graph.relationship_map()
    assert len(snapshot) == 2 * graph.num_links()


def test_snapshot_pickles_and_copies_as_a_map(graph):
    snapshot = graph.relationship_map()
    for clone in (pickle.loads(pickle.dumps(snapshot)),
                  copy.deepcopy(snapshot), copy.copy(snapshot)):
        assert isinstance(clone, RelationshipMap)
        assert list(clone.items()) == list(snapshot.items())
        with pytest.raises(TypeError):
            clone[(10, 30)] = Relationship.PEER


def test_typed_map_and_snapshot_stay_out_of_serialized_state(graph):
    snapshot = graph.relationship_map()
    state = graph.__getstate__()
    assert "_neighbours" not in state
    assert "_relationship_cache" not in state
    for restored in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        rebuilt = restored.relationship_map()
        assert rebuilt is not snapshot
        assert list(rebuilt.items()) == list(snapshot.items())
        assert restored.relationship_map() is rebuilt
        assert differences(restored) == []


def test_of_keeps_snapshots_and_copies_plain_maps(graph):
    snapshot = graph.relationship_map()
    assert RelationshipMap.of(snapshot) is snapshot
    plain = dict(snapshot)
    held = RelationshipMap.of(plain)
    assert held is not plain and held == plain
    plain[(10, 40)] = Relationship.PEER
    assert (10, 40) not in held
    assert RelationshipMap.of(None) == {}

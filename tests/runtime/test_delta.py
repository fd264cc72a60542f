"""Unit tests of the delta-recompute plane (`repro.runtime.delta`).

The equivalence of full timeline replays against from-scratch rebuilds
lives in ``tests/scenarios/test_events.py``; here the affected-set
machinery and the result-patching contract are exercised directly on
small hand-built topologies.
"""

import pytest

from repro.bgp.propagation import OriginSpec
from repro.bgp.prefix import Prefix
from repro.runtime.context import PipelineContext
from repro.runtime.delta import (
    DeltaStats,
    KIND_C2P,
    KIND_PEER,
    _observer_below,
    affected_origins,
    affected_update,
    customer_cone,
    fragments_equivalent,
    origins_touching,
    patched_result,
)
from repro.topology.as_graph import ASGraph, ASLink, ASNode, LinkType


def two_trees(peer_link: bool = False) -> ASGraph:
    """Two provider trees: 1 over {3, 4}, 3 over {6}; 2 over {5}.

    With ``peer_link`` the roots 1 and 2 peer, joining the trees.
    """
    graph = ASGraph()
    for asn in (1, 2, 3, 4, 5, 6):
        graph.add_as(ASNode(asn=asn,
                            prefixes=[Prefix.parse(f"10.{asn}.0.0/16")]))
    graph.add_c2p(3, 1)
    graph.add_c2p(4, 1)
    graph.add_c2p(6, 3)
    graph.add_c2p(5, 2)
    if peer_link:
        graph.add_p2p(1, 2)
    return graph


ALL_ASNS = [1, 2, 3, 4, 5, 6]


def propagate_all(graph, record_at=None):
    """(context, result) with every AS an origin, recording everywhere
    (or at *record_at*)."""
    context = PipelineContext.from_graph(graph)
    engine = context.engine(record_at=record_at)
    origins = [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
               for node in graph.nodes()]
    return context, engine.propagate(origins)


# ---------------------------------------------------------------------------
# affected_origins (the conservative backward cone)
# ---------------------------------------------------------------------------


def test_affected_origins_disjoint_trees_stay_unaffected():
    index = two_trees().build_index()
    affected = affected_origins(index, {5}, ALL_ASNS)
    # Tree {2, 5} is tainted; tree {1, 3, 4, 6} cannot reach the seed.
    assert affected == {2, 5}


def test_affected_origins_takes_at_most_one_peer_hop():
    graph = ASGraph()
    for asn in (1, 2, 3):
        graph.add_as(ASNode(asn=asn))
    graph.add_p2p(1, 2)
    graph.add_p2p(2, 3)
    affected = affected_origins(graph.build_index(), {3}, [1, 2, 3])
    # 2 peers with the seed; 1 would need a second (invalid) peer hop.
    assert affected == {2, 3}


def test_affected_origins_isolated_seed_taints_itself():
    index = two_trees().build_index()
    assert affected_origins(index, {99}, ALL_ASNS + [99]) == {99}
    assert affected_origins(index, set(), ALL_ASNS) == frozenset()


# ---------------------------------------------------------------------------
# cones and observer gating
# ---------------------------------------------------------------------------


def test_customer_cone():
    index = two_trees(peer_link=True).build_index()
    assert customer_cone(index, 1) == {1, 3, 4, 6}
    assert customer_cone(index, 3) == {3, 6}
    assert customer_cone(index, 5) == {5}
    assert customer_cone(index, 99) == {99}  # not in the index


def test_observer_below():
    index = two_trees(peer_link=True).build_index()
    assert _observer_below(index, 3, frozenset({6}))      # descent 3 -> 6
    assert _observer_below(index, 3, frozenset({3}))      # the AS itself
    assert not _observer_below(index, 2, frozenset({6}))  # other tree
    assert not _observer_below(index, 3, frozenset({1}))  # 1 is above 3
    assert _observer_below(index, 3, None)                # records everywhere
    assert not _observer_below(index, 99, frozenset({6}))


# ---------------------------------------------------------------------------
# origins_touching: the exact removal/taint scan
# ---------------------------------------------------------------------------


def test_origins_touching_finds_paths_crossing_an_edge():
    graph = two_trees(peer_link=True)
    _, result = propagate_all(graph)
    touching = origins_touching(result, pairs=[(3, 1)])
    # 6 climbs through 3 -> 1; every origin descends 1 -> 3 towards 6.
    assert 6 in touching and 5 in touching
    # No recorded path crosses 3-1 for... every origin does here (dense);
    # but the edge 5-2 is only crossed by routes entering/leaving tree 2.
    not_touching = set(ALL_ASNS) - origins_touching(result, pairs=[(5, 2)])
    assert not_touching == set()  # with a peer link all origins reach 5
    assert origins_touching(result) == set()


def test_origins_touching_node_visits():
    graph = two_trees()  # no peer link: trees are independent
    _, result = propagate_all(graph)
    touching = origins_touching(result, visits=[2])
    assert touching == {2, 5}


def test_removal_exactness_against_brute_force():
    """Origins outside the touching set keep bit-identical fragments
    when the edge is removed — for every edge of the graph."""
    graph = two_trees(peer_link=True)
    _, before = propagate_all(graph)
    for link in list(graph.links()):
        touching = origins_touching(before, pairs=[(link.a, link.b)])
        mutated = two_trees(peer_link=True)
        mutated.remove_link(link.a, link.b)
        _, after = propagate_all(mutated)
        before_map = before.recorded_fragments()
        after_map = after.recorded_fragments()
        for origin in ALL_ASNS:
            if origin not in touching:
                assert fragments_equivalent(before_map[origin],
                                            after_map[origin]), \
                    (link, origin)


# ---------------------------------------------------------------------------
# affected_update: addition analysis
# ---------------------------------------------------------------------------


def test_affected_update_c2p_addition_climb_side():
    graph = two_trees()
    index = graph.build_index()
    _, prior = propagate_all(graph, record_at=frozenset({1, 4}))
    # Adding 5 -> 1 (customer 5, provider 1): 5's cone climbs and
    # re-exports globally; no observer sits at/below 5, so the descent
    # side contributes nothing.
    affected = affected_update(prior, index, ALL_ASNS, frozenset({1, 4}),
                               added=[(KIND_C2P, 5, 1)])
    assert affected == {5}


def test_affected_update_c2p_addition_descent_gated_by_observer():
    graph = two_trees()
    index = graph.build_index()
    _, prior = propagate_all(graph, record_at=frozenset({5}))
    # Now an observer sits at the customer endpoint: everything the
    # provider holds can surface there -> conservative backward cone
    # of the provider (tree 1 entirely) plus the climb side.
    affected = affected_update(prior, index, ALL_ASNS, frozenset({5}),
                               added=[(KIND_C2P, 5, 1)])
    assert affected == {1, 3, 4, 5, 6}


def test_affected_update_peer_addition_cone_exchange():
    graph = two_trees()
    index = graph.build_index()
    _, prior = propagate_all(graph, record_at=frozenset({6, 5}))
    # Peering 1 with 2: 1's cone surfaces below 2 (observer 5 present),
    # 2's cone surfaces below 1 (observer 6 present) -> both cones.
    affected = affected_update(prior, index, ALL_ASNS, frozenset({6, 5}),
                               added=[(KIND_PEER, 1, 2)])
    assert affected == {1, 2, 3, 4, 5, 6}
    # Without an observer under tree 2, only 2's cone can surface.
    affected = affected_update(prior, index, ALL_ASNS, frozenset({6}),
                               added=[(KIND_PEER, 1, 2)])
    assert affected == {2, 5}


def test_affected_update_removal_uses_exact_scan():
    graph = two_trees()
    index = graph.build_index()
    _, prior = propagate_all(graph)
    affected = affected_update(prior, index, ALL_ASNS, None,
                               removed=[(5, 2)])
    assert affected == {2, 5}


# ---------------------------------------------------------------------------
# incremental CSR splice: structural identity with a fresh build
# ---------------------------------------------------------------------------


def assert_index_identical(spliced, fresh):
    """Phase arrays equal and bags semantically equal, row for row."""
    for phase_name in ("customer_edges", "peer_edges", "provider_edges"):
        mine = getattr(spliced, phase_name)
        theirs = getattr(fresh, phase_name)
        assert mine.indptr == theirs.indptr, phase_name
        assert mine.targets == theirs.targets, phase_name
        assert mine.rels == theirs.rels, phase_name
        assert mine.vias == theirs.vias, phase_name
        # Bag ids may differ across stores; the community sets must not.
        assert [spliced.bags.value(bag) for bag in mine.bags] \
            == [fresh.bags.value(bag) for bag in theirs.bags], phase_name
    assert spliced.num_edges == fresh.num_edges
    assert list(spliced.node_asns) == list(fresh.node_asns)


def test_spliced_index_matches_fresh_build_per_link():
    """Removing then re-adding every link via splice reproduces the
    from-scratch build's arrays exactly."""
    from repro.topology.as_graph import link_adjacencies

    graph = two_trees(peer_link=True)
    graph.add_link(ASLink(4, 6, LinkType.SIBLING))
    index = graph.build_index()
    for link in list(graph.links()):
        if graph.degree(link.a) == 1 or graph.degree(link.b) == 1:
            continue  # node would leave the edge set: rebuild territory
        adjacencies = link_adjacencies(link)
        without = index.spliced(adjacencies, [])
        mutated = ASGraph()
        for node in graph.nodes():
            mutated.add_as(ASNode(asn=node.asn,
                                  prefixes=list(node.prefixes)))
        for other_link in graph.links():
            if other_link is not link:
                mutated.add_link(other_link)
        assert_index_identical(without, mutated.build_index())
        back = without.spliced([], adjacencies)
        assert_index_identical(back, graph.build_index())


def test_spliced_index_rejects_unknown_edges():
    from repro.topology.as_graph import link_adjacencies

    graph = two_trees()
    index = graph.build_index()
    missing = ASGraph()
    for asn in (3, 4):
        missing.add_as(ASNode(asn=asn))
    phantom = missing.add_p2p(3, 4)
    with pytest.raises(KeyError):  # removal of an edge that is not there
        index.spliced(link_adjacencies(phantom), [])
    present = graph.get_link(3, 1)
    with pytest.raises(KeyError):  # double insertion of a present edge
        index.spliced([], link_adjacencies(present))


def test_spliced_index_retags_edge_bags_in_place():
    from repro.bgp.communities import Community
    from repro.topology.as_graph import link_adjacencies

    graph = two_trees()
    graph.add_p2p(1, 2, ixp="IX", multilateral=True)
    first = {1: frozenset({Community(65000, 1)})}
    second = {1: frozenset({Community(65000, 2)})}
    index = graph.build_index(
        rs_community_provider=lambda asn, ixp: first.get(asn, frozenset()))
    link = graph.get_link(1, 2)
    retagged = index.spliced([], [], link_adjacencies(
        link, lambda asn, ixp: second.get(asn, frozenset())))
    fresh = graph.build_index(
        rs_community_provider=lambda asn, ixp: second.get(asn, frozenset()))
    assert_index_identical(retagged, fresh)
    # The pre-splice index still carries the old bag (store append-only).
    assert_index_identical(
        index, graph.build_index(
            rs_community_provider=lambda asn, ixp: first.get(
                asn, frozenset())))


# ---------------------------------------------------------------------------
# patched_result: block reuse and stats
# ---------------------------------------------------------------------------


def test_patched_result_reuses_blocks_byte_for_byte():
    graph = two_trees(peer_link=True)
    context, prior = propagate_all(graph)
    engine = context.engine()
    specs = [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
             for node in graph.nodes()]

    patched, stats = patched_result(prior, specs, {4},
                                    engine.batch_fragments)
    assert stats == DeltaStats(total=6, recomputed=1, reused=5)
    assert stats.recomputed_fraction == pytest.approx(1 / 6)
    prior_map = prior.recorded_fragments()
    patched_map = patched.recorded_fragments()
    assert list(patched_map) == list(prior_map)
    for origin in ALL_ASNS:
        best, offered = patched_map[origin]
        if origin == 4:
            assert best is not prior_map[origin][0]
            assert fragments_equivalent((best, offered), prior_map[origin])
        else:  # literal object reuse, not a copy
            assert best is prior_map[origin][0]
            assert offered is prior_map[origin][1]


def test_patched_result_recomputes_new_origins_and_drops_gone_ones():
    graph = two_trees()
    context, prior = propagate_all(graph)
    engine = context.engine()
    specs = [OriginSpec(asn=asn, prefixes=[Prefix.parse(f"10.{asn}.0.0/16")])
             for asn in (1, 2, 3, 4, 5)]  # 6 gone
    specs.append(OriginSpec(asn=99, prefixes=[]))  # new (isolated) origin
    patched, stats = patched_result(prior, specs, set(),
                                    engine.batch_fragments)
    assert stats.recomputed == 1  # only the new origin
    assert set(patched.recorded_fragments()) == {1, 2, 3, 4, 5, 99}


def test_repeated_origin_is_rejected():
    """Each origin is recorded once: a second recording of the same
    origin raises and leaves the result unchanged."""
    graph = two_trees()
    _, result = propagate_all(graph)
    before = result.recorded_fragments()
    best, offered = before[6]
    with pytest.raises(ValueError, match="already recorded"):
        result._record(result.origin_spec(6), best, offered)
    assert result.recorded_fragments() == before
    assert result.origins() == list(before)


# ---------------------------------------------------------------------------
# mutation epochs: route-cache keys can never serve stale blocks
# ---------------------------------------------------------------------------


def test_route_cache_epoch_invalidation():
    graph = two_trees()
    context = PipelineContext.from_graph(graph)
    context.bind_epoch(lambda: graph.version)
    engine = context.engine(record_at=frozenset(ALL_ASNS))
    specs = [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
             for node in graph.nodes()]

    engine.batch_fragments(specs)
    hits_before = context.route_cache.hits
    engine.batch_fragments(specs)
    assert context.route_cache.hits > hits_before  # warm, same epoch

    graph.add_c2p(6, 1)  # structural mutation bumps graph.version
    misses_before = context.route_cache.misses
    hits_before = context.route_cache.hits
    engine.batch_fragments(specs)
    assert context.route_cache.misses > misses_before
    assert context.route_cache.hits == hits_before  # nothing stale served


def test_mutation_epoch_defaults_to_constant():
    context = PipelineContext.from_graph(two_trees())
    assert context.mutation_epoch() == 0

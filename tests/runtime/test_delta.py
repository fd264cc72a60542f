"""Unit tests of the delta-recompute plane (`repro.runtime.delta`).

The equivalence of full timeline replays against from-scratch rebuilds
lives in ``tests/scenarios/test_events.py``; here the affected-set
machinery and the result-patching contract are exercised directly on
small hand-built topologies and blocks, and the one-pass
``origins_touching`` lookup is diffed against the per-block scan oracle
(:mod:`tests.oracle.delta`) on the europe2013 tiny baseline.
"""

import pickle
import random

import pytest

from repro.bgp.propagation import (
    CLASS_CUSTOMER,
    OriginSpec,
    PropagatedRoute,
    PropagationResult,
    RouteBlock,
)
from repro.bgp.prefix import Prefix
from repro.pipeline.run import ScenarioRun
from repro.runtime.context import PipelineContext
from repro.runtime.csr import NO_EDGES
from repro.runtime.delta import (
    DeltaStats,
    KIND_C2P,
    KIND_OTHER,
    KIND_PEER,
    _observer_below,
    affected_origins,
    affected_update,
    customer_cone,
    origins_touching,
    patched_result,
)
from repro.scenarios.events import build_context, record_sets
from repro.scenarios.spec import get_scenario
from repro.topology.as_graph import (
    ASGraph,
    ASLink,
    ASNode,
    LinkType,
    link_edges,
)

from tests.oracle import delta as oracle
from tests.oracle.propagation import origin_spec
from tests.oracle.blocks import (
    block_from_routes,
    fragments_equivalent,
    link_pairs,
)


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
    # Recording everywhere, every origin crosses 5-2 as well: observer
    # 5 learns every other origin from its only provider 2, and 5's own
    # announcement leaves through 2.
    not_touching = set(ALL_ASNS) - origins_touching(result, pairs=[(5, 2)])
    assert not_touching == set()
    assert origins_touching(result) == set()


def test_origins_touching_node_visits():
    graph = two_trees()  # no peer link: trees are independent
    _, result = propagate_all(graph)
    touching = origins_touching(result, visits=[2])
    assert touching == {2, 5}


def block_of(*paths):
    """A hand-built block with one row per AS path (observer first)."""
    return block_from_routes(
        PropagatedRoute(asn=path[0], path=tuple(path),
                        communities=frozenset(), provenance=CLASS_CUSTOMER,
                        learned_from=path[1] if len(path) > 1 else None)
        for path in paths)


def result_of(records):
    """A result recording ``origin -> (best paths, offered paths)``."""
    result = PropagationResult()
    for origin, (best, offered) in records.items():
        result._record(OriginSpec(asn=origin, prefixes=[]),
                       block_of(*best), block_of(*offered))
    return result


def test_origins_touching_ignores_pairs_across_row_boundaries():
    # Cell neighbours across a row, block or origin boundary are not
    # hops: 7|3 ends one row and starts the next, 7|9 ends origin 7's
    # best block and starts its offered block, 7|4 ends origin 7's
    # offered block and starts origin 8's best block.
    result = result_of({
        7: ([(1, 7), (3, 5, 7)], [(9, 6, 7)]),
        8: ([(4, 8)], []),
    })
    for pair in [(3, 7), (7, 9), (4, 7)]:
        assert origins_touching(result, pairs=[pair]) == set(), pair
        assert oracle.origins_touching(result, pairs=[pair]) == set(), pair
    assert origins_touching(result, pairs=[(5, 3)]) == {7}
    assert origins_touching(result, pairs=[(8, 4)]) == {8}


def test_origins_touching_never_matches_a_prepend():
    result = result_of({7: ([(1, 7, 7), (7, 7)], [(2, 7, 7)])})
    assert origins_touching(result, pairs=[(7, 7)]) == set()
    assert oracle.origins_touching(result, pairs=[(7, 7)]) == set()
    assert origins_touching(result, pairs=[(7, 1)]) == {7}
    assert origins_touching(result, pairs=[(7, 7), (2, 7)]) == {7}


def test_origins_touching_matches_offered_only_crossings():
    result = result_of({
        7: ([(1, 2, 7)], [(1, 2, 7), (1, 3, 7)]),
        8: ([(1, 2, 8)], [(1, 2, 8)]),
    })
    assert origins_touching(result, pairs=[(3, 1)]) == {7}
    assert oracle.origins_touching(result, pairs=[(3, 1)]) == {7}
    assert origins_touching(result, visits=[3]) == {7}
    assert origins_touching(result, pairs=[(1, 2)]) == {7, 8}


def test_unkeyable_block_counts_as_touching_every_pair():
    """Path values beyond 32 bits (not ASNs) cannot be packed: such a
    block answers every pair query as crossing (recomputing an origin is
    always sound), while visits and ``visible_links`` stay exact."""
    huge = 1 << 40
    result = result_of({
        7: ([(1, huge, 7)], []),
        8: ([(1, 2, 8)], []),
    })
    best = result.recorded_fragments()[7][0]
    assert best.link_keys() is None
    assert origins_touching(result, pairs=[(1, 2)]) == {7, 8}
    assert oracle.origins_touching(result, pairs=[(1, 2)]) == {8}
    assert origins_touching(result, pairs=[(1, huge)]) == {7}
    assert origins_touching(result, visits=[huge]) == {7}
    assert origins_touching(result, visits=[2]) == {8}
    assert result.visible_links() == {(1, huge), (7, huge), (1, 2), (2, 8)}


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
# origins_touching vs the per-block scan oracle (europe2013 tiny)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def europe_tiny():
    """The europe2013 tiny baseline: graph, route servers and the
    propagation artifact (alternatives recorded at the validation
    hosts, so offered blocks are populated)."""
    run = ScenarioRun(scenario="europe2013",
                      config=get_scenario("europe2013").config("tiny"))
    return {
        "graph": run.artifact("topology").graph,
        "route_servers": run.artifact("ixps")["route_servers"],
        "propagation": run.artifact("propagation"),
    }


def touching_queries(graph, route_servers):
    """``(pairs, visits)`` queries: every graph link as a removed pair,
    every RS member as a visit, and one multi-pair query per RS member
    holding its RS links at that IXP (what a ``MemberLeave`` removes)."""
    queries = [([(link.a, link.b)], ()) for link in graph.links()]
    for ixp, route_server in route_servers.items():
        for member in route_server.members():
            queries.append(((), (member,)))
            pairs = [(link.a, link.b)
                     for link in graph.links(LinkType.RS_P2P)
                     if link.ixp == ixp and member in link.endpoints]
            if pairs:
                queries.append((pairs, ()))
    return queries


class _ScanView:
    """*result* as the oracle scan reads it, with each block's
    link pairs derived once (blocks are immutable; the scan
    re-derives them on every call), restricted per query to the origins
    holding both ends of a queried pair or a visited ASN — no other
    origin can match, so the scan's answer is unchanged."""

    class _Block:
        __slots__ = ("path_values", "_pairs")

        def __init__(self, block):
            self.path_values = block.path_values
            self._pairs = link_pairs(block)

        def link_pairs(self):
            return self._pairs

    def __init__(self, result):
        self._fragments = {
            origin: (self._Block(best), self._Block(offered))
            for origin, (best, offered) in
            result.recorded_fragments().items()}
        self._values = {
            origin: set(best.path_values.tolist())
            | set(offered.path_values.tolist())
            for origin, (best, offered) in self._fragments.items()}
        self._keep = None

    def recorded_fragments(self):
        return {origin: self._fragments[origin] for origin in self._keep}

    def origins_touching(self, pairs, visits):
        self._keep = [origin for origin, values in self._values.items()
                      if any(a in values and b in values for a, b in pairs)
                      or not values.isdisjoint(visits)]
        return oracle.origins_touching(self, pairs=pairs, visits=visits)


def assert_touching_matches(result, queries, expected):
    for (pairs, visits), want in zip(queries, expected):
        assert origins_touching(result, pairs=pairs, visits=visits) \
            == want, (pairs, visits)


def test_origins_touching_matches_scan_oracle(europe_tiny):
    graph = europe_tiny["graph"]
    prior = europe_tiny["propagation"]["propagation"]
    assert any(len(offered)
               for _best, offered in prior.recorded_fragments().values())
    queries = touching_queries(graph, europe_tiny["route_servers"])
    view = _ScanView(prior)
    expected = [view.origins_touching(pairs, visits)
                for pairs, visits in queries]
    assert any(expected)
    assert_touching_matches(prior, queries, expected)

    # A pickle round trip drops every block's cached keys; the answers
    # rebuilt from the restored columns are the same.
    restored = pickle.loads(pickle.dumps(prior))
    for best, offered in restored.recorded_fragments().values():
        assert best._link_keys is None and offered._link_keys is None
    assert_touching_matches(restored, queries, expected)


def test_origins_touching_on_a_patched_result(europe_tiny):
    """Reused blocks keep the keys the prior lookups cached, freshly
    computed ones are keyed on the next lookup: the mixture answers
    like the scan oracle."""
    graph = europe_tiny["graph"]
    route_servers = europe_tiny["route_servers"]
    propagation = europe_tiny["propagation"]
    prior = propagation["propagation"]
    origins_touching(prior, pairs=[(1, 2)])  # keys every prior block
    record_at, record_alternatives_at = record_sets(propagation)
    # A fresh context: its empty route cache recomputes new blocks.
    engine = build_context(graph, route_servers).engine(
        record_at=record_at, record_alternatives_at=record_alternatives_at)
    specs = [origin_spec(prior, origin) for origin in prior.origins()]
    stale = set(prior.origins()[::3])
    patched, stats = patched_result(prior, specs, stale,
                                    engine.batch_fragments)
    assert 0 < stats.recomputed < stats.total
    prior_map = prior.recorded_fragments()
    for origin, (best, offered) in patched.recorded_fragments().items():
        if origin in stale:
            assert best is not prior_map[origin][0]
            assert best._link_keys is None
        else:
            assert best is prior_map[origin][0]
            assert best._link_keys is not None
    queries = touching_queries(graph, route_servers)
    view = _ScanView(patched)
    expected = [view.origins_touching(pairs, visits)
                for pairs, visits in queries]
    assert_touching_matches(patched, queries, expected)


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


def test_affected_update_removal_uses_edge_cones():
    graph = two_trees()
    index = graph.build_index()
    _, prior = propagate_all(graph)
    # Removing 5 -> 2 (customer 5, provider 2): 5's cone climbs over the
    # edge; recording everywhere, whatever reaches 2 descends over it.
    affected = affected_update(prior, index, ALL_ASNS, None,
                               removed=[(KIND_C2P, 5, 2)])
    assert affected == {2, 5}
    # With no observer at or below 5, the descent side carries nothing
    # that surfaces: only the climb side is left.
    _, prior = propagate_all(graph, record_at=frozenset({1, 4}))
    affected = affected_update(prior, index, ALL_ASNS, frozenset({1, 4}),
                               removed=[(KIND_C2P, 5, 2)])
    assert affected == {5}


def test_affected_update_rebagged_edges_use_exact_scan():
    graph = two_trees(peer_link=True)
    index = graph.build_index()
    _, prior = propagate_all(graph)
    affected = affected_update(prior, index, ALL_ASNS, None,
                               rebagged=[(1, 2)])
    assert affected == oracle.origins_touching(prior, pairs=[(1, 2)])
    assert affected_update(prior, index, ALL_ASNS, None, tainted=[5]) \
        == oracle.origins_touching(prior, visits=[5])


def random_graph(rng, size=14):
    """A random hierarchy with bilateral and route-server peerings and a
    sibling pair, every AS announcing one prefix."""
    graph = ASGraph()
    for asn in range(1, size + 1):
        graph.add_as(ASNode(asn=asn,
                            prefixes=[Prefix.parse(f"10.{asn}.0.0/16")]))
    for asn in range(2, size + 1):
        for provider in rng.sample(range(1, asn),
                                   k=min(asn - 1, rng.randint(1, 2))):
            graph.add_c2p(asn, provider)
    for number in range(size + 2):
        a, b = rng.sample(range(1, size + 1), 2)
        if not graph.has_link(a, b):
            graph.add_p2p(a, b, ixp="IX" if number % 2 else None,
                          multilateral=bool(number % 2))
    a, b = rng.sample(range(1, size + 1), 2)
    if not graph.has_link(a, b):
        graph.add_link(ASLink(a, b, LinkType.SIBLING))
    return graph


def link_change(link):
    if link.link_type is LinkType.C2P:
        return (KIND_C2P, link.a, link.b)
    if link.link_type is LinkType.SIBLING:
        return (KIND_OTHER, link.a, link.b)
    return (KIND_PEER, link.a, link.b)


def recorded(graph, records, alternatives):
    context = PipelineContext.from_graph(graph)
    engine = context.engine(record_at=records,
                            record_alternatives_at=alternatives)
    origins = [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
               for node in graph.nodes()]
    return context.index, engine.propagate(origins)


@pytest.mark.parametrize("seed", range(8))
def test_link_changes_keep_every_unaffected_fragment(seed):
    """Removing and re-adding each link of a random topology: every
    origin outside ``affected_update``'s set keeps its fragments row
    for row, order included, although the link may have carried its
    losing candidates."""
    rng = random.Random(seed)
    graph = random_graph(rng)
    asns = sorted(graph.asns())
    records = frozenset(rng.sample(asns, 4))
    alternatives = frozenset(rng.sample(sorted(records), 2))
    index, before = recorded(graph, records, alternatives)
    for link in sorted(graph.links(), key=lambda l: l.endpoints):
        mutated = graph.copy()
        mutated.remove_link(link.a, link.b)
        mutated_index, after = recorded(mutated, records, alternatives)
        for prior, pre_index, post, change in (
                (before, index, after, {"removed": [link_change(link)]}),
                (after, mutated_index, before,
                 {"added": [link_change(link)]})):
            affected = affected_update(prior, pre_index, asns, records,
                                       **change)
            prior_map = prior.recorded_fragments()
            post_map = post.recorded_fragments()
            for origin in set(asns) - affected:
                assert fragments_equivalent(prior_map[origin],
                                            post_map[origin]), \
                    (seed, link, change, origin)


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
    graph = two_trees(peer_link=True)
    graph.add_link(ASLink(4, 6, LinkType.SIBLING))
    index = graph.build_index()
    for link in list(graph.links()):
        if graph.degree(link.a) == 1 or graph.degree(link.b) == 1:
            continue  # node would leave the edge set: rebuild territory
        edges = link_edges([link], index.bags)
        without, rebagged = index.spliced(edges, NO_EDGES)
        assert rebagged == ()
        mutated = ASGraph()
        for node in graph.nodes():
            mutated.add_as(ASNode(asn=node.asn,
                                  prefixes=list(node.prefixes)))
        for other_link in graph.links():
            if other_link is not link:
                mutated.add_link(other_link)
        assert_index_identical(without, mutated.build_index())
        back = without.spliced(NO_EDGES, edges).index
        assert_index_identical(back, graph.build_index())
        # Back to the pre-removal edges, on the shared interner and
        # bag store: the indexes match.
        assert back.matches(index) and index.matches(back)
        assert not without.matches(index)


def test_spliced_index_rejects_unknown_edges():
    graph = two_trees()
    index = graph.build_index()
    missing = ASGraph()
    for asn in (3, 4):
        missing.add_as(ASNode(asn=asn))
    phantom = missing.add_p2p(3, 4)
    with pytest.raises(KeyError):  # removal of an edge that is not there
        index.spliced(link_edges([phantom], index.bags), NO_EDGES)
    present = graph.get_link(3, 1)
    with pytest.raises(KeyError):  # double insertion of a present edge
        index.spliced(NO_EDGES, link_edges([present], index.bags))


def test_spliced_index_retags_edge_bags_in_place():
    from repro.bgp.communities import Community

    graph = two_trees()
    graph.add_p2p(1, 2, ixp="IX", multilateral=True)
    first = {1: frozenset({Community(65000, 1)})}
    second = {1: frozenset({Community(65000, 2)})}
    index = graph.build_index(
        rs_community_provider=lambda asn, ixp: first.get(asn, frozenset()))
    link = graph.get_link(1, 2)
    retagged, rebagged = index.spliced(NO_EDGES, NO_EDGES, link_edges(
        [link], index.bags, lambda asn, ixp: second.get(asn, frozenset())))
    fresh = graph.build_index(
        rs_community_provider=lambda asn, ixp: second.get(asn, frozenset()))
    assert_index_identical(retagged, fresh)
    # Only 1's export changed its bag; 2 -> 1 kept its (empty) bag.
    assert rebagged == ((1, 2),)
    # Retagging with the bags already in place changes nothing.
    again = retagged.spliced(NO_EDGES, NO_EDGES, link_edges(
        [link], index.bags, lambda asn, ixp: second.get(asn, frozenset())))
    assert again.rebagged == () and again.index.matches(retagged)
    assert not retagged.matches(index)
    # Equal edges on another interner or bag store do not match.
    assert not retagged.matches(fresh)
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
        result._record(origin_spec(result, 6), best, offered)
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

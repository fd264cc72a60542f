"""Tests for the valley-free propagation engine."""

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import (
    CLASS_CUSTOMER,
    CLASS_ORIGIN,
    CLASS_PEER,
    CLASS_PROVIDER,
    OriginSpec,
    PropagationEngine,
)

from tests.oracle.propagation import (
    Adjacency,
    all_paths,
    best_route,
    bidirectional_adjacencies,
    engine_from_adjacencies,
)


def build_engine(links, record_at=None, record_alternatives_at=None,
                 extra_adjacencies=()):
    """links: list of (customer, provider) or (a, b, 'peer'/'rs') tuples."""
    adjacencies = []
    for link in links:
        if len(link) == 2:
            customer, provider = link
            adjacencies.extend(bidirectional_adjacencies(
                customer, provider, Relationship.PROVIDER))
        else:
            a, b, kind = link
            rel = Relationship.RS_PEER if kind == "rs" else Relationship.PEER
            adjacencies.append(Adjacency(source=a, target=b, relationship=rel))
            adjacencies.append(Adjacency(source=b, target=a, relationship=rel))
    adjacencies.extend(extra_adjacencies)
    return engine_from_adjacencies(adjacencies, record_at=record_at,
                             record_alternatives_at=record_alternatives_at)


def origin(asn, prefix="10.0.0.0/24"):
    return OriginSpec(asn=asn, prefixes=[Prefix.parse(prefix)])


class TestBidirectionalAdjacencies:
    def test_customer_provider_directions(self):
        adjacencies = bidirectional_adjacencies(1, 2, Relationship.CUSTOMER)
        by_target = {adj.target: adj for adj in adjacencies}
        # 2 is 1's customer: when 2 learns from 1, it learned from a provider.
        assert by_target[2].relationship is Relationship.PROVIDER
        assert by_target[1].relationship is Relationship.CUSTOMER


class TestPropagation:
    def test_customer_route_climbs_to_provider(self):
        # 10 is customer of 20, 20 customer of 30.
        engine = build_engine([(10, 20), (20, 30)])
        result = engine.propagate([origin(10)])
        assert best_route(result, 30, 10).path == (30, 20, 10)
        assert best_route(result, 30, 10).provenance == CLASS_CUSTOMER

    def test_provider_route_descends_to_customers(self):
        engine = build_engine([(10, 20), (11, 20)])
        result = engine.propagate([origin(10)])
        assert best_route(result, 11, 10).path == (11, 20, 10)
        assert best_route(result, 11, 10).provenance == CLASS_PROVIDER

    def test_peer_route_single_hop(self):
        # 10-20 c2p, 20 peers with 30, 30 has customer 40.
        engine = build_engine([(10, 20), (40, 30), (20, 30, "peer")])
        result = engine.propagate([origin(10)])
        # 30 learns via its peer 20, and passes it down to customer 40.
        assert best_route(result, 30, 10).path == (30, 20, 10)
        assert best_route(result, 30, 10).provenance == CLASS_PEER
        assert best_route(result, 40, 10).path == (40, 30, 20, 10)

    def test_valley_free_violation_blocked(self):
        # A route learned from a peer must not be re-exported to another peer.
        engine = build_engine([(10, 20), (20, 30, "peer"), (30, 40, "peer")])
        result = engine.propagate([origin(10)])
        assert best_route(result, 30, 10) is not None
        assert best_route(result, 40, 10) is None

    def test_peer_route_not_exported_to_provider(self):
        # 30 learns 10's route from peer 20; 30's provider 50 must not get it.
        engine = build_engine([(10, 20), (20, 30, "peer"), (30, 50)])
        result = engine.propagate([origin(10)])
        assert best_route(result, 50, 10) is None

    def test_customer_route_preferred_over_peer_and_provider(self):
        # 99 can reach the origin both via its customer and via its peer.
        engine = build_engine([(10, 99), (10, 20), (20, 99, "peer")])
        result = engine.propagate([origin(10)])
        best = best_route(result, 99, 10)
        assert best.provenance == CLASS_CUSTOMER
        assert best.path == (99, 10)

    def test_shortest_path_wins_within_class(self):
        engine = build_engine([(10, 20), (20, 30), (10, 30)])
        result = engine.propagate([origin(10)])
        assert best_route(result, 30, 10).path == (30, 10)

    def test_origin_route_recorded(self):
        engine = build_engine([(10, 20)])
        result = engine.propagate([origin(10)])
        assert best_route(result, 10, 10).provenance == CLASS_ORIGIN
        assert best_route(result, 10, 10).path == (10,)

    def test_rs_peer_communities_attached_and_transitive(self):
        tag = Community(6695, 6695)
        adjacency = [
            Adjacency(source=10, target=20, relationship=Relationship.RS_PEER,
                      communities=frozenset({tag})),
            Adjacency(source=20, target=10, relationship=Relationship.RS_PEER),
        ]
        engine = build_engine([(30, 20)], extra_adjacencies=adjacency)
        result = engine.propagate([origin(10)])
        # 20 learned 10's route over the RS edge: the community is attached,
        # and survives the export down to 20's customer 30.
        assert tag in best_route(result, 20, 10).communities
        assert tag in best_route(result, 30, 10).communities

    def test_non_transparent_route_server_asn_in_path(self):
        adjacency = [
            Adjacency(source=10, target=20, relationship=Relationship.RS_PEER,
                      via_rs_asn=6695, rs_transparent=False),
            Adjacency(source=20, target=10, relationship=Relationship.RS_PEER,
                      via_rs_asn=6695, rs_transparent=False),
        ]
        engine = build_engine([], extra_adjacencies=adjacency)
        result = engine.propagate([origin(10)])
        assert best_route(result, 20, 10).path == (20, 6695, 10)

    def test_record_at_limits_observers(self):
        engine = build_engine([(10, 20), (20, 30)], record_at=[30])
        result = engine.propagate([origin(10)])
        assert best_route(result, 30, 10) is not None
        assert best_route(result, 20, 10) is None

    def test_record_alternatives(self):
        engine = build_engine([(10, 20), (10, 30), (20, 99), (30, 99)],
                              record_alternatives_at=[99])
        result = engine.propagate([origin(10)])
        paths = all_paths(result, 99, 10)
        assert len(paths) >= 2
        first_hops = {route.path[1] for route in paths}
        assert first_hops == {20, 30}

    def test_visible_links_from_observers(self):
        engine = build_engine([(10, 20), (20, 30)])
        result = engine.propagate([origin(10)])
        links = result.visible_links([30])
        assert links == {(10, 20), (20, 30)}

    def test_multiple_origins(self):
        engine = build_engine([(10, 20), (11, 20)])
        result = engine.propagate([origin(10), origin(11, "10.1.0.0/24")])
        assert best_route(result, 11, 10) is not None
        assert best_route(result, 10, 11) is not None
        assert set(result.origins()) == {10, 11}

    def test_sibling_link_transparent(self):
        adjacencies = [
            Adjacency(source=10, target=11, relationship=Relationship.SIBLING),
            Adjacency(source=11, target=10, relationship=Relationship.SIBLING),
        ]
        engine = build_engine([(11, 20, "peer")], extra_adjacencies=adjacencies)
        result = engine.propagate([origin(10)])
        # The sibling 11 holds the route with origin-like provenance and can
        # therefore still export it across its peering link.
        assert best_route(result, 11, 10) is not None
        assert best_route(result, 20, 10) is not None

"""Tests for the AS graph container."""

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.runtime.frontier import REL_CUSTOMER, REL_PROVIDER, REL_RS_PEER
from repro.runtime.stores import CommunityBagStore
from repro.topology.as_graph import ASGraph, ASLink, ASNode, ASType, link_edges
from repro.topology.relationships import LinkType


@pytest.fixture
def graph():
    g = ASGraph()
    for asn, as_type in [(10, ASType.STUB), (20, ASType.REGIONAL),
                         (30, ASType.TRANSIT), (40, ASType.STUB)]:
        g.add_as(ASNode(asn=asn, as_type=as_type))
    g.add_c2p(10, 20)        # 10 customer of 20
    g.add_c2p(20, 30)
    g.add_p2p(20, 40, ixp="DE-CIX", multilateral=True)
    return g


class TestNodesAndLinks:
    def test_membership(self, graph):
        assert 10 in graph and graph.has_as(10)
        assert 99 not in graph
        assert len(graph) == 4

    def test_add_link_requires_nodes(self, graph):
        with pytest.raises(KeyError):
            graph.add_link(ASLink(10, 999, LinkType.P2P))

    def test_self_loop_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_link(ASLink(10, 10, LinkType.P2P))

    def test_link_lookup_order_independent(self, graph):
        assert graph.get_link(20, 10) is graph.get_link(10, 20)
        assert graph.has_link(40, 20)


    def test_remove_link(self, graph):
        assert graph.remove_link(10, 20)
        assert not graph.has_link(10, 20)
        assert not graph.remove_link(10, 20)

    def test_links_filtered_by_type(self, graph):
        assert len(graph.links(LinkType.C2P)) == 2
        assert len(graph.links(LinkType.RS_P2P)) == 1
        assert not graph.links(LinkType.P2P)
        assert len(graph.links()) == 3


class TestRelationshipQueries:
    def test_customers_and_providers(self, graph):
        assert graph.customers(20) == [10]
        assert graph.providers(20) == [30]
        assert graph.providers(10) == [20]
        assert graph.customers(10) == []


    def test_relationship_view(self, graph):
        assert graph.relationship(20, 10) is Relationship.CUSTOMER
        assert graph.relationship(10, 20) is Relationship.PROVIDER
        assert graph.relationship(20, 40) is Relationship.RS_PEER
        assert graph.relationship(10, 40) is None

    def test_relationship_map_is_symmetric(self, graph):
        relmap = graph.relationship_map()
        assert relmap[(20, 10)] is Relationship.CUSTOMER
        assert relmap[(10, 20)] is Relationship.PROVIDER

    def test_degrees_and_stubs(self, graph):
        assert graph.degree(20) == 3
        assert graph.transit_degree(20) == 1


class TestIXPAnnotations:
    def test_ixp_membership_queries(self, graph):
        graph.get_as(20).ixps.add("DE-CIX")
        graph.get_as(40).ixps.add("DE-CIX")
        graph.get_as(40).rs_memberships.add("DE-CIX")
        assert graph.members_of_ixp("DE-CIX") == [20, 40]
        assert graph.rs_members_of_ixp("DE-CIX") == [40]

    def test_prefixes(self, graph):
        graph.get_as(10).prefixes.append(Prefix.parse("10.0.0.0/24"))
        assert graph.prefixes_of(10) == [Prefix.parse("10.0.0.0/24")]


class TestPropagationExport:
    def test_adjacency_export_counts(self, graph):
        edges = link_edges(graph.links(), CommunityBagStore())
        # Every link yields two directed edges, a->b then b->a.
        assert len(edges.sources) == 2 * len(graph.links())
        assert list(zip(edges.sources, edges.targets))[:2] == [(10, 20),
                                                               (20, 10)]
        # 20 imports from its customer 10, and 10 from its provider 20.
        assert edges.rels[:2] == [REL_CUSTOMER, REL_PROVIDER]
        assert set(edges.vias) == {-1}
        assert graph.build_index().num_edges == 2 * len(graph.links())

    def test_rs_community_provider_called_for_rs_links(self, graph):
        from repro.bgp.communities import Community
        calls = []

        def provider(asn, ixp):
            calls.append((asn, ixp))
            return frozenset({Community(6695, asn if asn < 65536 else 0)})

        bags = CommunityBagStore()
        edges = link_edges(graph.links(), bags,
                           rs_community_provider=provider)
        rs_bags = [bag for bag, rel in zip(edges.bags, edges.rels)
                   if rel == REL_RS_PEER]
        assert len(rs_bags) == 2
        # Once per RS-link end, a then b; each edge carries its
        # exporter's communities and every other edge none.
        assert calls == [(20, "DE-CIX"), (40, "DE-CIX")]
        assert [bags.value(bag) for bag in rs_bags] == [
            frozenset({Community(6695, 20)}),
            frozenset({Community(6695, 40)})]
        assert sum(1 for bag in edges.bags if bag) == 2

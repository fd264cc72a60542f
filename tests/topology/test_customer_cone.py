"""Tests for customer cones and degrees."""

import pytest

from repro.topology.as_graph import ASGraph, ASNode
from repro.topology.customer_cone import customer_cone, customer_cones


@pytest.fixture
def hierarchy():
    g = ASGraph()
    for asn in [1, 2, 3, 4, 5, 6]:
        g.add_as(ASNode(asn=asn))
    # 1 is the top provider: 2 and 3 are its customers; 4,5 below 2; 6 below 4.
    g.add_c2p(2, 1)
    g.add_c2p(3, 1)
    g.add_c2p(4, 2)
    g.add_c2p(5, 2)
    g.add_c2p(6, 4)
    return g


class TestCustomerCone:
    def test_cone_of_top_provider_is_everything(self, hierarchy):
        assert customer_cone(hierarchy, 1) == {1, 2, 3, 4, 5, 6}

    def test_cone_of_mid_provider(self, hierarchy):
        assert customer_cone(hierarchy, 2) == {2, 4, 5, 6}

    def test_cone_of_stub_is_itself(self, hierarchy):
        assert customer_cone(hierarchy, 6) == {6}

    def test_batch_computation_matches_single(self, hierarchy):
        cones = customer_cones(hierarchy)
        for asn in hierarchy.asns():
            assert cones[asn] == customer_cone(hierarchy, asn)

    def test_customer_degree(self, hierarchy):
        assert hierarchy.transit_degree(1) == 2
        assert hierarchy.transit_degree(2) == 2
        assert hierarchy.transit_degree(6) == 0


    def test_is_in_customer_cone(self, hierarchy):
        assert 6 in customer_cone(hierarchy, 1)
        assert 6 not in customer_cone(hierarchy, 3)

    def test_multihomed_customer_in_both_cones(self, hierarchy):
        hierarchy.add_c2p(6, 3)
        assert 6 in customer_cone(hierarchy, 3)
        assert 6 in customer_cone(hierarchy, 2)

    def test_replacing_link_orientation_keeps_one_link(self):
        g = ASGraph()
        for asn in (1, 2):
            g.add_as(ASNode(asn=asn))
        g.add_c2p(1, 2)
        g.add_c2p(2, 1)  # re-registering flips the orientation, no duplicate
        assert len(g.links()) == 1
        cones = customer_cones(g)
        assert cones[1] == {1, 2}
        assert cones[2] == {2}

"""Tests for relationships, Gao-Rexford export rules, and sessions."""

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import (
    ExportPolicy,
    ImportPolicy,
    Relationship,
    default_local_pref,
    export_allowed,
)
from repro.bgp.prefix import Prefix
from repro.bgp.session import (
    bilateral_session_count,
    multilateral_session_count,
)


class TestRelationship:
    def test_inverse(self):
        assert Relationship.CUSTOMER.inverse() is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse() is Relationship.CUSTOMER
        assert Relationship.PEER.inverse() is Relationship.PEER
        assert Relationship.RS_PEER.inverse() is Relationship.RS_PEER
        assert Relationship.SIBLING.inverse() is Relationship.SIBLING

    def test_is_peering(self):
        assert Relationship.PEER.is_peering
        assert Relationship.RS_PEER.is_peering
        assert not Relationship.CUSTOMER.is_peering

    def test_local_pref_ordering(self):
        assert default_local_pref(Relationship.CUSTOMER) > \
            default_local_pref(Relationship.PEER) > \
            default_local_pref(Relationship.PROVIDER)
        assert default_local_pref(Relationship.PEER) > \
            default_local_pref(Relationship.RS_PEER)


class TestExportRule:
    def test_customer_routes_exported_to_everyone(self):
        for target in Relationship:
            assert export_allowed(Relationship.CUSTOMER, target)

    def test_peer_routes_only_to_customers(self):
        assert export_allowed(Relationship.PEER, Relationship.CUSTOMER)
        assert not export_allowed(Relationship.PEER, Relationship.PEER)
        assert not export_allowed(Relationship.PEER, Relationship.PROVIDER)
        assert not export_allowed(Relationship.RS_PEER, Relationship.RS_PEER)

    def test_provider_routes_only_to_customers(self):
        assert export_allowed(Relationship.PROVIDER, Relationship.CUSTOMER)
        assert not export_allowed(Relationship.PROVIDER, Relationship.PEER)

    def test_sibling_transparent(self):
        assert export_allowed(Relationship.PROVIDER, Relationship.SIBLING)
        assert export_allowed(Relationship.SIBLING, Relationship.PEER)


class TestPolicies:
    def test_import_policy_blocks_origin(self):
        policy = ImportPolicy(blocked_asns={666})
        assert not policy.accepts(Prefix.parse("10.0.0.0/24"), 666)
        assert policy.accepts(Prefix.parse("10.0.0.0/24"), 100)

    def test_import_policy_blocks_prefix(self):
        bad = Prefix.parse("10.0.0.0/24")
        policy = ImportPolicy(blocked_prefixes={bad})
        assert not policy.accepts(bad, 100)

    def test_import_policy_local_pref_override(self):
        policy = ImportPolicy(local_pref=250)
        assert policy.effective_local_pref(Relationship.PROVIDER) == 250
        assert ImportPolicy().effective_local_pref(Relationship.CUSTOMER) == 100

    def test_export_policy_valley_free_by_default(self):
        policy = ExportPolicy()
        assert not policy.allows(Prefix.parse("10.0.0.0/24"), 1,
                                 Relationship.PEER, Relationship.PEER)
        assert policy.allows(Prefix.parse("10.0.0.0/24"), 1,
                             Relationship.CUSTOMER, Relationship.PEER)

    def test_export_policy_announce_all_override(self):
        policy = ExportPolicy(announce_all=True)
        assert policy.allows(Prefix.parse("10.0.0.0/24"), 1,
                             Relationship.PROVIDER, Relationship.PEER)

    def test_export_policy_blocked_origin(self):
        policy = ExportPolicy(announce_all=True, blocked_asns={42})
        assert not policy.allows(Prefix.parse("10.0.0.0/24"), 42,
                                 Relationship.CUSTOMER, Relationship.CUSTOMER)

    def test_export_policy_adds_communities(self):
        tag = Community(6695, 6695)
        policy = ExportPolicy(added_communities={tag})
        result = policy.communities_for({Community(0, 1)})
        assert tag in result and Community(0, 1) in result

    def test_export_policy_strip_communities(self):
        policy = ExportPolicy(strip_communities=True,
                              added_communities={Community(1, 1)})
        result = policy.communities_for({Community(0, 1)})
        assert result == frozenset({Community(1, 1)})


class TestSession:
    def test_session_counts_figure1(self):
        # Figure 1: six ASes in a full mesh need 15 bilateral sessions but
        # only 12 sessions with two route servers.
        assert bilateral_session_count(6) == 15
        assert multilateral_session_count(6, 2) == 12
        assert multilateral_session_count(6, 1) == 6

    def test_session_count_validation(self):
        with pytest.raises(ValueError):
            bilateral_session_count(-1)
        with pytest.raises(ValueError):
            multilateral_session_count(5, -1)

"""Tests for member export policies and the route server."""

import pytest

from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.ixp.community_schemes import CommunityScheme
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer

from tests.oracle.reachability import served_pairs


@pytest.fixture
def scheme():
    return CommunityScheme.rs_asn_style("DE-CIX", 6695)


@pytest.fixture
def route_server(scheme):
    rs = RouteServer("DE-CIX", 6695, scheme)
    rs.add_member(100, MemberExportPolicy.announce_to_all(100, "DE-CIX"))
    rs.add_member(200, MemberExportPolicy.all_except(200, "DE-CIX", {300}))
    rs.add_member(300, MemberExportPolicy(300, "DE-CIX", "none-except",
                                          frozenset({100})))
    rs.add_member(400, MemberExportPolicy.announce_to_all(400, "DE-CIX"))
    for asn, prefix in [(100, "11.0.0.0/24"), (200, "11.0.1.0/24"),
                        (300, "11.0.2.0/24"), (400, "11.0.3.0/24")]:
        rs.announce(asn, Prefix.parse(prefix))
    return rs


class TestMemberExportPolicy:
    def test_all_except(self):
        policy = MemberExportPolicy.all_except(1, "X", {2})
        assert policy.allows(3) and not policy.allows(2)

    def test_none_except(self):
        policy = MemberExportPolicy(1, "X", "none-except", frozenset({2}))
        assert policy.allows(2) and not policy.allows(3)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            MemberExportPolicy(member_asn=1, ixp_name="X", mode="bogus")

    def test_communities_for_policy(self, scheme):
        policy = MemberExportPolicy.all_except(1, "DE-CIX", {5410})
        communities = policy.communities_for(scheme)
        assert Community(0, 5410) in communities

    def test_prefix_override(self, scheme):
        special = Prefix.parse("11.9.9.0/24")
        policy = MemberExportPolicy(1, "DE-CIX", prefix_overrides={
            special: MemberExportPolicy(1, "DE-CIX", "none-except",
                                        frozenset({42}))})
        assert policy.allows(7)                      # default prefix
        assert not policy.allows(7, special)         # overridden prefix
        assert policy.allows(42, special)
        communities = policy.communities_for(scheme, special)
        assert Community(0, 6695) in communities


class TestRouteServer:
    def test_membership_management(self, route_server):
        assert route_server.members() == [100, 200, 300, 400]
        assert route_server.is_member(100)
        ip = route_server.member_ip(100)
        assert route_server.member_by_ip(ip) == 100

    def test_policy_mismatch_rejected(self, scheme):
        rs = RouteServer("X", 1, scheme)
        with pytest.raises(ValueError):
            rs.add_member(5, MemberExportPolicy.announce_to_all(6, "X"))

    def test_announce_requires_membership(self, route_server):
        with pytest.raises(KeyError):
            route_server.announce(999, Prefix.parse("11.5.0.0/24"))

    def test_announcement_carries_policy_communities(self, route_server):
        entries = route_server.routes_from_member(200)
        assert len(entries) == 1
        assert Community(0, 300) in entries[0].communities

    def test_rib_queries(self, route_server):
        prefix = Prefix.parse("11.0.1.0/24")
        assert route_server.members_announcing(prefix) == [200]
        assert route_server.announced_prefixes(300) == [Prefix.parse("11.0.2.0/24")]
        assert len(route_server) == 4

    def test_withdraw(self, route_server):
        prefix = Prefix.parse("11.0.1.0/24")
        assert route_server.withdraw(200, prefix)
        assert not route_server.withdraw(200, prefix)
        assert route_server.members_announcing(prefix) == []

    def test_allowed_targets_all_except(self, route_server):
        entry = route_server.routes_from_member(200)[0]
        assert {m for m in route_server.members() if route_server._member_allowed(m, entry)} == {100, 400}

    def test_allowed_targets_none_except(self, route_server):
        entry = route_server.routes_from_member(300)[0]
        assert {m for m in route_server.members() if route_server._member_allowed(m, entry)} == {100}

    def test_exports_to_respects_filters(self, route_server):
        # 300 is excluded by 200 and itself only includes 100.
        prefixes_seen_by_300 = {e.prefix for e in route_server.exports_to(300)}
        assert Prefix.parse("11.0.1.0/24") not in prefixes_seen_by_300
        assert Prefix.parse("11.0.0.0/24") in prefixes_seen_by_300
        # 100 receives 300's routes (it is included).
        prefixes_seen_by_100 = {e.prefix for e in route_server.exports_to(100)}
        assert Prefix.parse("11.0.2.0/24") in prefixes_seen_by_100

    def test_served_pairs_reciprocal_only(self, route_server):
        pairs = served_pairs(route_server)
        assert (100, 300) in pairs          # mutual allow
        assert (200, 300) not in pairs      # blocked both ways
        assert (300, 400) not in pairs      # 300 does not include 400
        assert (100, 200) in pairs and (100, 400) in pairs and (200, 400) in pairs


    def test_non_transparent_rs_prepends_its_asn(self, scheme):
        rs = RouteServer("TOP-IX", 12956, scheme, transparent=False)
        rs.add_member(1, MemberExportPolicy.announce_to_all(1, "TOP-IX"))
        rs.add_member(2, MemberExportPolicy.announce_to_all(2, "TOP-IX"))
        rs.announce(1, Prefix.parse("11.7.0.0/24"))
        exported = rs.exports_to(2)
        assert exported[0].as_path[0] == 12956

    def test_remove_member_drops_routes(self, route_server):
        route_server.remove_member(200)
        assert not route_server.is_member(200)
        assert route_server.members_announcing(Prefix.parse("11.0.1.0/24")) == []

    def test_explicit_communities_override_policy(self, route_server, scheme):
        prefix = Prefix.parse("11.0.9.0/24")
        route_server.announce(100, prefix,
                              communities={scheme.none_community})
        entry = route_server.routes_for_prefix(prefix)[0]
        assert {m for m in route_server.members() if route_server._member_allowed(m, entry)} == set()

    def test_32bit_member_filterable(self, scheme):
        rs = RouteServer("DE-CIX", 6695, scheme)
        rs.add_member(200001, MemberExportPolicy.announce_to_all(200001, "DE-CIX"))
        rs.add_member(100, MemberExportPolicy.all_except(100, "DE-CIX", {200001}))
        rs.add_member(300, MemberExportPolicy.announce_to_all(300, "DE-CIX"))
        rs.announce(100, Prefix.parse("11.8.0.0/24"))
        entry = rs.routes_from_member(100)[0]
        targets = {m for m in rs.members() if rs._member_allowed(m, entry)}
        assert 200001 not in targets and 300 in targets

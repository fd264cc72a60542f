"""Tests for the IXP object and the looking-glass servers."""

import pytest

from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.ixp.community_schemes import CommunityScheme
from repro.ixp.ixp import IXP
from repro.ixp.looking_glass import (
    ASLookingGlass,
    LGQueryCounter,
    LGRoute,
    RouteServerLookingGlass,
)
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer


@pytest.fixture
def ixp_with_rs():
    scheme = CommunityScheme.rs_asn_style("DE-CIX", 6695)
    ixp = IXP(name="DE-CIX", region="eu-central",
              peering_lan=Prefix.parse("80.81.192.0/21"))
    rs = RouteServer("DE-CIX", 6695, scheme)
    ixp.add_route_server(rs)
    for asn in (100, 200, 300):
        ixp.add_member(asn)
        ixp.connect_to_route_server(
            asn, MemberExportPolicy.announce_to_all(asn, "DE-CIX"))
    ixp.add_member(400)  # present at the IXP but not on the route server
    rs.announce(100, Prefix.parse("11.0.0.0/24"))
    rs.announce(200, Prefix.parse("11.0.1.0/24"))
    rs.announce(300, Prefix.parse("11.0.1.0/24"))  # shared prefix
    return ixp


class TestIXP:
    def test_membership_and_ips(self, ixp_with_rs):
        assert sorted(ixp_with_rs.members) == [100, 200, 300, 400]
        assert ixp_with_rs.rs_members() == [100, 200, 300]
        ip = ixp_with_rs.member_ip(100)
        assert ip.startswith("80.81.")

    def test_member_list_publication(self, ixp_with_rs):
        assert ixp_with_rs.member_list() == [100, 200, 300, 400]
        ixp_with_rs.publishes_member_list = False
        assert ixp_with_rs.member_list() == []

    def test_session_counts_and_participation(self, ixp_with_rs):
        counts = ixp_with_rs.session_counts()
        assert counts["bilateral_sessions"] == 3
        assert counts["multilateral_sessions"] == 3

    def test_no_route_server_errors(self):
        ixp = IXP(name="EMPTY")
        assert not ixp.has_route_server()
        ixp.add_member(1)
        with pytest.raises(ValueError):
            ixp.connect_to_route_server(1)


class TestQueryCounter:
    def test_counts_and_duration(self):
        counter = LGQueryCounter()
        counter.record("a")
        counter.record("a")
        counter.record("b")
        assert counter.total == 3
        assert counter.counts["a"] == 2
        counter.reset()
        assert counter.total == 0


class TestRouteServerLookingGlass:
    def test_three_commands(self, ixp_with_rs):
        lg = RouteServerLookingGlass(ixp_with_rs.route_servers[0])
        summary = lg.show_ip_bgp_summary()
        assert {asn for _, asn in summary} == {100, 200, 300}

        ip_200 = dict((asn, ip) for ip, asn in summary)[200]
        prefixes = lg.show_ip_bgp_neighbor_routes(ip_200)
        assert prefixes == [Prefix.parse("11.0.1.0/24")]

        routes = lg.show_ip_bgp_prefix(Prefix.parse("11.0.1.0/24"))
        assert {route.learned_from for route in routes} == {200, 300}
        assert lg.counter.total == 3

    def test_queries_are_counted_per_command(self, ixp_with_rs):
        lg = RouteServerLookingGlass(ixp_with_rs.route_servers[0])
        lg.show_ip_bgp_summary()
        lg.show_ip_bgp_prefix(Prefix.parse("11.0.0.0/24"))
        assert lg.counter.counts["show ip bgp"] == 1
        assert lg.counter.counts["show ip bgp prefix"] == 1


class TestASLookingGlass:
    def make_lg(self, display_all):
        lg = ASLookingGlass(asn=999, display_all_paths=display_all)
        prefix = Prefix.parse("11.0.0.0/24")
        lg.load_route(LGRoute(prefix=prefix, as_path=(999, 100, 10),
                              best=False, learned_from=100))
        lg.load_route(LGRoute(prefix=prefix, as_path=(999, 200, 10),
                              best=True, learned_from=200,
                              communities=frozenset({Community(0, 6695)})))
        return lg, prefix

    def test_all_paths_lg_shows_everything(self):
        lg, prefix = self.make_lg(display_all=True)
        assert len(lg.show_ip_bgp_prefix(prefix)) == 2

    def test_best_path_lg_hides_alternatives(self):
        lg, prefix = self.make_lg(display_all=False)
        routes = lg.show_ip_bgp_prefix(prefix)
        assert len(routes) == 1
        assert routes[0].best


    def test_unknown_prefix_empty(self):
        lg, _ = self.make_lg(display_all=True)
        assert lg.show_ip_bgp_prefix(Prefix.parse("99.0.0.0/24")) == []

    def test_load_route_server_exports(self, ixp_with_rs):
        lg = ASLookingGlass(asn=100)
        count = lg.load_route_server_exports(ixp_with_rs.route_servers[0])
        assert count == 2  # routes of 200 and 300
        assert lg.load_route_server_exports(ixp_with_rs.route_servers[0]) >= 0
        outsider = ASLookingGlass(asn=555)
        assert outsider.load_route_server_exports(ixp_with_rs.route_servers[0]) == 0

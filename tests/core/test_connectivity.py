"""Connectivity discovery against its per-member reference.

:meth:`ConnectivityDiscovery.discover` builds each IXP's route-server
member set once and records each source's members in one step; the
oracle (``tests/oracle/connectivity.py``) adds members one at a time and
re-lists the RS members for every website entry.  Per IXP, both must
agree on ``members``, on every ASN's source (the first source wins, in
the same order) and on ``complete``: on every registered scenario at
tiny, and on hand-built IXPs covering each source, an IXP without a
published member list and the IRR-search fallback.
"""

from __future__ import annotations

import pytest

from repro.bgp.prefix import Prefix
from repro.core.connectivity import ConnectivityDiscovery
from repro.ixp.community_schemes import CommunityScheme
from repro.ixp.ixp import IXP
from repro.ixp.looking_glass import RouteServerLookingGlass
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer
from repro.pipeline import ArtifactCache, ScenarioRun
from repro.registries.irr import ASSet, AutNumPolicy, IRRDatabase
from repro.scenarios.spec import get_scenario, scenario_names

from tests.oracle.connectivity import discover_all, report_differences


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_discovery_matches_oracle(name):
    scenario = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                           cache=ArtifactCache()).scenario()
    mine = scenario.discover_connectivity()
    theirs = discover_all(scenario.connectivity_discovery(),
                          scenario.ixps.values(),
                          scenario.rs_looking_glasses, scenario.rs_asns())
    assert report_differences(mine, theirs) == [], name
    assert any(report.members for report in mine.values()), name


def test_one_discovery_per_scenario(monkeypatch):
    """The connectivity stage and every ablation share one discovery,
    equal to a fresh one."""
    run = ScenarioRun(get_scenario("europe2013").config("tiny"),
                      cache=ArtifactCache())
    scenario = run.scenario()
    discover_all_ = ConnectivityDiscovery.discover_all
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return discover_all_(self, *args, **kwargs)

    monkeypatch.setattr(ConnectivityDiscovery, "discover_all", counted)
    for options in ({}, {"use_active": False}, {"use_passive": False},
                    {"require_reciprocity": False}):
        scenario.run_inference(**options)
    assert run.artifact("connectivity") is scenario.discover_connectivity()
    assert len(calls) == 1
    fresh = discover_all_(scenario.connectivity_discovery(),
                          scenario.ixps.values(),
                          rs_lgs=scenario.rs_looking_glasses,
                          rs_asns=scenario.rs_asns())
    assert report_differences(scenario.discover_connectivity(), fresh) == []
    assert scenario.discover_connectivity() == fresh


def test_member_change_rediscovers():
    """A route-server membership change between two runs on one
    scenario reaches the next run's discovery and member sets."""
    scenario = ScenarioRun(get_scenario("europe2013").config("tiny"),
                           cache=ArtifactCache()).scenario()
    scenario.run_inference()
    name = sorted(scenario.rs_looking_glasses)[0]
    rs = scenario.route_servers[name]
    joiner = min(asn for asn in scenario.graph.asns()
                 if asn not in rs.member_set())
    rs.add_member(joiner)
    result = scenario.run_inference()
    assert joiner in scenario.discover_connectivity()[name].members
    assert joiner in result.per_ixp[name].members
    rs.remove_member(joiner)
    scenario.run_inference()
    assert joiner not in scenario.discover_connectivity()[name].members


def _ixp(name, rs_asn, rs_members, others=(), publishes=True):
    """An IXP whose route server connects *rs_members*; *others* are
    present at the exchange but not on the route server."""
    ixp = IXP(name=name, peering_lan=Prefix.parse("185.1.0.0/22"),
              publishes_member_list=publishes)
    scheme = CommunityScheme.rs_asn_style(name, rs_asn)
    ixp.add_route_server(RouteServer(name, rs_asn, scheme))
    for asn in rs_members:
        ixp.connect_to_route_server(
            asn, MemberExportPolicy.announce_to_all(asn, name))
    for asn in others:
        ixp.add_member(asn)
    return ixp


@pytest.fixture
def hand_built():
    """Four IXPs, one per discovery path:

    - ``LG``: a route-server looking glass (authoritative), an as-set
      with one extra member and a published list;
    - ``ASSET``: no looking glass, an as-set naming part of the RS
      members, the rest found on the website;
    - ``WEB``: website only (members off the RS are left out);
    - ``HIDDEN``: no looking glass, no as-set and no published list, so
      the IRR aut-num search recovers a partial list.
    """
    irr = IRRDatabase()
    irr.register_as_set(ASSet("AS-LG-RS", members={30, 10, 99}))
    irr.register_as_set(ASSet("AS-ASSET-RS", members={220, 200}))
    for asn in (310, 320):
        irr.register_aut_num(AutNumPolicy(asn=asn, rs_peers={65003}))
    irr.register_aut_num(AutNumPolicy(asn=65003, rs_peers={65003}))
    irr.register_aut_num(AutNumPolicy(asn=330, blocked_export={65003}))
    irr.register_aut_num(AutNumPolicy(asn=340, rs_peers={1}))
    ixps = [
        _ixp("LG", 65000, (30, 10, 20), others=(40,)),
        _ixp("ASSET", 65001, (200, 210, 220, 230), others=(240,)),
        _ixp("WEB", 65002, (120, 110), others=(130,)),
        _ixp("HIDDEN", 65003, (310, 320, 330, 350), publishes=False),
    ]
    discovery = ConnectivityDiscovery(
        irr=irr, as_set_names={"LG": "AS-LG-RS", "ASSET": "AS-ASSET-RS"})
    rs_lgs = {"LG": RouteServerLookingGlass(ixps[0].route_servers[0])}
    rs_asns = {ixp.name: ixp.route_servers[0].rs_asn for ixp in ixps}
    return discovery, ixps, rs_lgs, rs_asns


def test_hand_built_discovery_matches_oracle(hand_built):
    discovery, ixps, rs_lgs, rs_asns = hand_built
    mine = discovery.discover_all(ixps, rs_lgs=rs_lgs, rs_asns=rs_asns)
    theirs = discover_all(discovery, ixps, rs_lgs, rs_asns)
    assert report_differences(mine, theirs) == []
    assert list(mine["LG"].sources.items()) == [
        (10, "lg"), (20, "lg"), (30, "lg"), (99, "as-set")]
    assert list(mine["ASSET"].sources.items()) == [
        (200, "as-set"), (220, "as-set"), (210, "website"),
        (230, "website")]
    assert mine["WEB"].sources == {110: "website", 120: "website"}
    assert mine["HIDDEN"].sources == {310: "irr-search", 320: "irr-search",
                                      330: "irr-search"}
    assert [name for name, report in mine.items()
            if not report.complete] == ["HIDDEN"]


def test_no_source_at_all_is_incomplete(hand_built):
    """Without a registry, the hidden IXP has no source: an empty,
    incomplete report from both."""
    _, ixps, rs_lgs, rs_asns = hand_built
    discovery = ConnectivityDiscovery()
    mine = discovery.discover_all(ixps, rs_lgs=rs_lgs, rs_asns=rs_asns)
    theirs = discover_all(discovery, ixps, rs_lgs, rs_asns)
    assert report_differences(mine, theirs) == []
    assert not mine["HIDDEN"].members and not mine["HIDDEN"].complete

"""Tests for the traceroute and geolocation substrates."""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.propagation import OriginSpec
from repro.bgp.policy import Relationship
from repro.measurement.geolocation import GeolocationDB
from repro.measurement.traceroute import TracerouteCampaign, TracerouteConfig
from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.context import PipelineContext
from repro.scenarios.spec import get_scenario, scenario_names
from repro.topology.as_graph import ASGraph, ASNode
from repro.topology.relationships import LinkType

from tests.oracle.observation import traceroute_links_by_route


@pytest.fixture
def rs_world():
    graph = ASGraph()
    for asn in (10, 20, 30, 40):
        graph.add_as(ASNode(asn=asn))
    graph.add_c2p(10, 20)
    graph.add_p2p(20, 30, ixp="DE-CIX", multilateral=True)
    graph.add_c2p(40, 30)
    engine = PipelineContext.from_graph(graph).engine()
    origins = [OriginSpec(asn=10, prefixes=[Prefix.parse("11.0.0.0/24")])]
    propagation = engine.propagate(origins)
    return graph, propagation


class TestTraceroute:
    def test_rs_links_reported_as_member_rs_adjacencies(self, rs_world):
        graph, propagation = rs_world
        campaign = TracerouteCampaign(
            graph, TracerouteConfig(monitor_asns=[40]),
            rs_asn_by_ixp={"DE-CIX": 6695})
        links = campaign.derive_links(propagation)
        # The member-member RS link is invisible; both member-RS links appear.
        assert (20, 30) not in links
        assert (6695, 20) in links or (20, 6695) in {(a, b) for a, b in links}
        assert any(6695 in link for link in links)

    def test_unknown_ixp_hop_disappears(self, rs_world):
        graph, propagation = rs_world
        campaign = TracerouteCampaign(
            graph, TracerouteConfig(monitor_asns=[40]), rs_asn_by_ixp={})
        links = campaign.derive_links(propagation)
        assert (20, 30) not in links
        assert all(6695 not in link for link in links)

    def test_ordinary_links_always_reported(self, rs_world):
        graph, propagation = rs_world
        campaign = TracerouteCampaign(
            graph, TracerouteConfig(monitor_asns=[40]),
            rs_asn_by_ixp={"DE-CIX": 6695})
        links = campaign.derive_links(propagation)
        assert (30, 40) in links and (10, 20) in links


@pytest.mark.parametrize("name", scenario_names())
def test_campaign_links_match_hop_by_hop_walk(name):
    """Each scenario's traceroute links, resolved once per distinct hop
    from the path columns, equal the hop-by-hop walk over the
    monitors' route objects."""
    scenario = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                           cache=ArtifactCache()).scenario()
    links = scenario.traceroute_links()
    assert links
    assert links == traceroute_links_by_route(scenario.traceroute,
                                              scenario.propagation)


class TestGeolocation:
    def test_region_lookup_exact_and_covering(self):
        db = GeolocationDB()
        db.register(Prefix.parse("11.0.0.0/16"), "eu-west")
        assert db.region_of(Prefix.parse("11.0.0.0/16")) == "eu-west"
        assert db.region_of(Prefix.parse("11.0.5.0/24")) == "eu-west"
        assert db.region_of(Prefix.parse("12.0.0.0/24")) is None

    def test_coordinates(self):
        db = GeolocationDB()
        db.register(Prefix.parse("11.0.0.0/16"), "eu-east")
        assert db.coordinates_of(Prefix.parse("11.0.0.0/16")) is not None
        assert db.coordinates_of(Prefix.parse("99.0.0.0/16")) is None

    def test_select_distant_prefers_spread(self):
        db = GeolocationDB()
        west = [Prefix.parse(f"11.0.{i}.0/24") for i in range(4)]
        east = [Prefix.parse(f"12.0.{i}.0/24") for i in range(4)]
        asia = [Prefix.parse("13.0.0.0/24")]
        db.register_many(west, "eu-west")
        db.register_many(east, "eu-east")
        db.register_many(asia, "asia")
        chosen = db.select_distant(west + east + asia, count=3)
        regions = {db.region_of(p) for p in chosen}
        assert regions == {"eu-west", "eu-east", "asia"}

    def test_select_distant_small_input_passthrough(self):
        db = GeolocationDB()
        prefixes = [Prefix.parse("11.0.0.0/24")]
        assert db.select_distant(prefixes, count=6) == prefixes

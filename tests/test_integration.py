"""End-to-end integration tests over the assembled scenario."""

import pytest

from repro.analysis.visibility import VisibilityAnalysis
from repro.topology.relationships import LinkType

from tests.oracle.reachability import served_pairs


class TestScenarioAssembly:
    def test_all_substrates_present(self, small_scenario):
        assert len(small_scenario.ixps) == 13
        assert len(small_scenario.route_servers) == 13
        assert small_scenario.rs_looking_glasses            # some IXPs have LGs
        assert small_scenario.third_party_lgs               # others use member LGs
        assert len(small_scenario.collectors) == 2
        assert small_scenario.validation_lgs
        assert len(small_scenario.peeringdb) > 0
        assert len(small_scenario.irr) > 0

    def test_route_server_state_matches_ground_truth(self, small_scenario):
        for name, route_server in small_scenario.route_servers.items():
            truth_members = set(small_scenario.graph.rs_members_of_ixp(name))
            assert set(route_server.members()) == truth_members
            served = served_pairs(route_server)
            truth_pairs = small_scenario.internet.mlp_ground_truth[name]
            # The RS serves at least the ground-truth pairs (per-prefix
            # inconsistencies may add a blocked prefix but not remove pairs).
            assert len(truth_pairs - served) <= max(2, len(truth_pairs) // 100)

    def test_archive_contains_rs_communities(self, small_scenario):
        entries = small_scenario.archive.clean_stable_entries()
        assert entries
        with_rs_communities = [
            entry for entry in entries
            if any(scheme.is_rs_community(c)
                   for scheme in small_scenario.schemes
                   for c in entry.communities)
        ]
        assert with_rs_communities

    def test_lan_prefixes_unique_per_ixp(self, small_scenario):
        lans = [ixp.peering_lan for ixp in small_scenario.ixps.values()]
        assert len(set(lans)) == len(lans)


class TestEndToEndNumbers:
    def test_headline_shape(self, small_scenario, inference_result):
        """The reproduction's qualitative claims, end to end:

        * precision of inferred links is essentially perfect (paper: 98.4%
          of validated links confirmed);
        * the majority of inferred links are invisible in public BGP data
          (paper: 88% invisible);
        * the inferred set is several times larger than the p2p links
          visible in BGP paths (paper: 209% more peering links).
        """
        inferred = set(inference_result.matrix.all_links())
        truth = small_scenario.ground_truth_links()
        bgp = small_scenario.public_bgp_links()

        precision = len(inferred & truth) / len(inferred)
        assert precision >= 0.98

        analysis = VisibilityAnalysis(
            mlp_links=inferred, bgp_links=bgp,
            traceroute_links=small_scenario.traceroute_links())
        assert analysis.report.fraction_invisible > 0.5
        report = analysis.report
        assert len(report.mlp_visible_in_traceroute) / report.num_mlp < \
            report.fraction_visible_in_bgp + 0.2

    def test_traceroute_does_not_see_rs_links(self, small_scenario):
        traceroute_links = small_scenario.traceroute_links()
        rs_links = {link.endpoints for link in
                    small_scenario.graph.links(LinkType.RS_P2P)}
        assert not (traceroute_links & rs_links)

    def test_inference_is_deterministic(self, small_scenario):
        first = small_scenario.run_inference()
        second = small_scenario.run_inference()
        assert first.matrix.all_links() == second.matrix.all_links()

    def test_passive_and_active_complement_each_other(self, small_scenario):
        both = small_scenario.run_inference()
        passive_only = small_scenario.run_inference(use_active=False)
        active_only = small_scenario.run_inference(use_passive=False)
        assert len(both.matrix.all_links()) >= \
            len(passive_only.matrix.all_links())
        assert len(both.matrix.all_links()) >= \
            len(active_only.matrix.all_links())
        # Every IXP with a route-server LG should be fully covered actively.
        for name in small_scenario.rs_looking_glasses:
            inference = active_only.per_ixp[name]
            assert inference.num_links > 0

"""Tests for the evaluation-section analyses (figures 5-13, sections 5.6-5.7)."""

import json

import pytest

from repro.analysis.degrees import DegreeAnalysis
from repro.analysis.density import (
    DensityReport,
    density_per_ixp,
    member_densities,
)
from repro.analysis.estimation import GlobalEstimator, IXPEstimate
from repro.analysis.hybrid import HybridRelationshipAnalysis
from repro.analysis.policies import PolicyAnalysis
from repro.analysis.prefix_stats import (
    PrefixStats,
    prefix_stats_for_route_server,
)
from repro.analysis.repellers import RepellerAnalysis
from repro.analysis.visibility import VisibilityAnalysis
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.pipeline.analyses import AnalysisOptions, run_analyses
from repro.topology.customer_cone import customer_cone

from tests.oracle.degrees import per_link_summary


class TestPrefixStats:
    def test_ccdf_and_fraction(self):
        announced = {
            1: [Prefix.parse("11.0.0.0/24"), Prefix.parse("11.0.1.0/24")],
            2: [Prefix.parse("11.0.1.0/24")],
            3: [Prefix.parse("11.0.1.0/24"), Prefix.parse("11.0.2.0/24")],
        }
        stats = PrefixStats(ixp_name="X", multiplicity={
            Prefix.parse("11.0.0.0/24"): 1, Prefix.parse("11.0.1.0/24"): 3})
        assert stats.fraction_multi_member() == pytest.approx(0.5)

    def test_on_scenario_route_server(self, small_scenario):
        stats = prefix_stats_for_route_server(
            small_scenario.route_servers["DE-CIX"])
        assert stats.multiplicity
        ccdf = stats.ccdf()
        assert ccdf[0][1] == 1.0
        # The CCDF is non-increasing.
        values = [value for _, value in ccdf]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestVisibility:
    def test_overlap_accounting(self):
        analysis = VisibilityAnalysis(
            mlp_links=[(1, 2), (2, 3), (3, 4)],
            bgp_links=[(2, 1), (5, 6)],
            traceroute_links=[(3, 4)],
        )
        report = analysis.report
        assert report.num_mlp == 3
        assert report.mlp_visible_in_bgp == {(1, 2)}
        assert report.fraction_visible_in_bgp == pytest.approx(1 / 3)
        assert report.fraction_invisible == pytest.approx(2 / 3)
        assert report.mlp_visible_in_traceroute == {(3, 4)}

    def test_per_member_series_sorted(self):
        analysis = VisibilityAnalysis(
            mlp_links=[(1, 2), (1, 3), (2, 3)], bgp_links=[(1, 2)])
        series = analysis.per_member_series()
        assert series[0]["mlp"] >= series[-1]["mlp"]
        row_for_1 = next(row for row in series if row["asn"] == 1)
        assert row_for_1["passive"] == 1


class TestDegrees:
    def test_figure7_fractions(self):
        degrees = {1: 0, 2: 0, 3: 5, 4: 50}
        analysis = DegreeAnalysis(lambda asn: degrees.get(asn, 0))
        stats = analysis.analyse([(1, 2), (1, 3), (3, 4)])
        assert stats.fraction_stub_stub() == pytest.approx(1 / 3)
        assert stats.fraction_with_stub() == pytest.approx(2 / 3)
        assert stats.fraction_small_degree(10) == pytest.approx(1.0)
        cdf = stats.cdf("smallest", points=(0, 10))
        assert cdf[-1][1] == 1.0

    def test_on_scenario(self, small_scenario, inference_result):
        graph = small_scenario.graph
        analysis = DegreeAnalysis(lambda asn: graph.transit_degree(asn)
                                  if graph.has_as(asn) else 0)
        stats = analysis.analyse(inference_result.matrix.all_links())
        summary = stats.summary()
        # Dense peering at the edge: most links involve small networks.
        assert summary["involves_stub"] > 0.3
        assert summary["involves_stub"] >= summary["stub_stub"]
        assert summary["small_degree"] >= summary["involves_stub"]

    def test_stage_summary_matches_per_link_walk(self, small_scenario,
                                                 inference_result):
        """The analyses stage counts customers once per distinct
        endpoint and gathers them over the link keys; its figure-7
        summary is byte-identical to counting them at both ends of
        every link (the per-link walk in :mod:`tests.oracle.degrees`),
        and so is ``DegreeAnalysis.analyse`` over the link pairs."""
        graph = small_scenario.graph
        links = inference_result.matrix.all_links()
        expected = per_link_summary(
            links, lambda asn: len(graph.customers(asn)))
        summary = run_analyses(small_scenario, inference_result,
                               AnalysisOptions(figures=("degrees",)))
        assert json.dumps(summary["degrees"]) == json.dumps(expected)
        stats = DegreeAnalysis(lambda asn: len(graph.customers(asn))) \
            .analyse(links)
        assert json.dumps(stats.summary()) == json.dumps(expected)
        assert expected["links"] > 0


class TestDensity:
    def test_member_densities(self):
        densities = member_densities([(1, 2), (1, 3)], [1, 2, 3])
        assert densities[1] == pytest.approx(1.0)
        assert densities[2] == pytest.approx(0.5)

    def test_density_per_ixp_report(self):
        report = density_per_ixp(
            {"X": [(1, 2), (1, 3), (2, 3)]}, {"X": [1, 2, 3]})
        assert report.mean_density("X") == pytest.approx(1.0)

    def test_on_scenario_band(self, small_scenario, inference_result):
        """Figure 12: density of RS peering should be high (paper: 0.79-0.95)."""
        report = density_per_ixp(
            inference_result.matrix.links_by_ixp(),
            {name: small_scenario.graph.rs_members_of_ixp(name)
             for name in inference_result.matrix.planes},
            only_members_with_links=True)
        # Like the paper's figure 12, only look at IXPs with full
        # connectivity data (a route-server looking glass).
        big_ixps = [name for name, plane
                    in inference_result.matrix.planes.items()
                    if plane.num_members >= 15
                    and name in small_scenario.rs_looking_glasses]
        assert big_ixps
        for name in big_ixps:
            assert report.mean_density(name) >= 0.6


class TestPolicies:
    def test_figure9_participation(self, small_scenario):
        analysis = PolicyAnalysis(small_scenario.graph, small_scenario.peeringdb)
        participation = analysis.participation_by_policy()
        assert participation.counts
        if "open" in participation.counts and "restrictive" in participation.counts:
            assert participation.participation_rate("open") >= \
                participation.participation_rate("restrictive")

    def test_figure10_matrix(self, small_scenario):
        analysis = PolicyAnalysis(small_scenario.graph, small_scenario.peeringdb)
        matrix = analysis.multi_ixp_matrix()
        assert matrix.total > 0
        total_fraction = matrix.fraction_single_ixp_with_rs() + matrix.fraction_no_rs()
        assert 0 < total_fraction <= 1.0

    def test_figure11_openness(self, small_scenario, inference_result):
        analysis = PolicyAnalysis(small_scenario.graph, small_scenario.peeringdb)
        members = {name: small_scenario.graph.rs_members_of_ixp(name)
                   for name in inference_result.matrix.planes}
        openness = analysis.export_openness_from_matrix(
            inference_result.matrix, members)
        assert openness
        means = PolicyAnalysis.mean_openness(openness)
        if "open" in means and "restrictive" in means:
            assert means["open"] > means["restrictive"]
        # Figure 11's binary pattern: most members are nearly-all or nearly-none.
        assert PolicyAnalysis.binary_pattern_fraction(openness) > 0.6


class TestRepellers:
    def test_counts_and_attribution(self, small_scenario, inference_result):
        graph = small_scenario.graph
        analysis = RepellerAnalysis(
            customer_cone=lambda asn: customer_cone(graph, asn),
            direct_customers=lambda asn: set(graph.customers(asn)))
        report = analysis.analyse_matrix(
            inference_result.matrix,
            {name: graph.rs_members_of_ixp(name)
             for name in inference_result.matrix.planes})
        assert report.total_exclusions > 0
        assert report.num_repellers > 0
        assert report.top_repellers(5)
        assert 0.0 <= report.fraction_provider_blocks_customer() <= 1.0
        scoped = report.by_geographic_scope(small_scenario.peeringdb)
        assert scoped

    def test_hypergiants_among_top_repellers(self, small_scenario, inference_result):
        """Section 5.5: content hypergiants with private peering are the
        most frequently excluded networks."""
        graph = small_scenario.graph
        analysis = RepellerAnalysis()
        report = analysis.analyse_matrix(
            inference_result.matrix,
            {name: graph.rs_members_of_ixp(name)
             for name in inference_result.matrix.planes})
        top = [asn for asn, _ in report.top_repellers(10)]
        assert any(asn in small_scenario.internet.hypergiants for asn in top)


class TestHybrid:
    def test_detection(self):
        def relationship(a, b):
            if (a, b) == (1, 2):
                return Relationship.CUSTOMER     # 2 is customer of 1
            if (a, b) == (2, 1):
                return Relationship.PROVIDER
            return Relationship.PEER
        analysis = HybridRelationshipAnalysis(
            relationship, hybrid_evidence=lambda link: True)
        report = analysis.analyse([(1, 2), (3, 4)], {(1, 2): ["DE-CIX"]})
        assert report.num_candidates == 1
        candidate = report.candidates[0]
        assert candidate.customer == 2 and candidate.provider == 1
        assert candidate.ixps == ("DE-CIX",)
        assert report.num_confirmed == 1

    def test_on_scenario(self, small_scenario, inference_result):
        graph = small_scenario.graph
        analysis = HybridRelationshipAnalysis(graph.relationship)
        report = analysis.analyse(inference_result.matrix.all_links())
        truth_hybrid = set()
        for pairs in small_scenario.internet.hybrid_pairs.values():
            truth_hybrid |= pairs
        # Every detected candidate must indeed be a c2p pair in the graph.
        for candidate in report.candidates:
            assert graph.relationship(candidate.customer, candidate.provider) \
                is Relationship.PROVIDER


class TestEstimation:
    def test_density_assumptions(self):
        estimator = GlobalEstimator()
        assert estimator.density_for(IXPEstimate("A", 100)) == 0.70
        assert estimator.density_for(IXPEstimate("B", 100, pricing="usage")) == 0.60
        assert estimator.density_for(
            IXPEstimate("C", 100, has_route_server=False)) == 0.50
        assert estimator.density_for(
            IXPEstimate("D", 100, region="north-america")) == 0.40

    def test_conservative_cap(self):
        estimator = GlobalEstimator(density_cap=0.60)
        assert estimator.density_for(IXPEstimate("A", 100)) == 0.60

    def test_estimate_totals(self):
        estimator = GlobalEstimator()
        report = estimator.estimate([
            IXPEstimate("A", 100), IXPEstimate("B", 50, pricing="usage")])
        expected_a = int(round(100 * 99 / 2 * 0.7))
        assert report.estimates[0].estimated_links == expected_a
        assert report.total_ixp_peerings > report.unique_peerings > 0
        assert report.by_region()["europe"] == report.total_ixp_peerings

    def test_exact_overlap_with_member_lists(self):
        estimator = GlobalEstimator()
        shared = {1, 2, 3, 4, 5}
        report = estimator.estimate([
            IXPEstimate("A", 5, member_asns=set(shared)),
            IXPEstimate("B", 5, member_asns=set(shared)),
        ])
        # All pairs are shared, so unique peerings equal one IXP's worth.
        assert report.unique_peerings == report.estimates[0].estimated_links

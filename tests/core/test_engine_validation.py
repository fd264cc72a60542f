"""Tests for connectivity discovery, reciprocity, the engine and validation."""

import pytest

from repro.core.connectivity import ConnectivityDiscovery
from repro.core.reciprocity import ReciprocityValidator
from repro.core.validation import LinkValidator
from repro.ixp.looking_glass import ASLookingGlass, LGRoute
from repro.bgp.prefix import Prefix
from repro.registries.irr import AutNumPolicy, IRRDatabase


class TestConnectivityDiscovery:
    def test_lg_is_authoritative(self, small_scenario, connectivity_reports):
        for name, lg in small_scenario.rs_looking_glasses.items():
            report = connectivity_reports[name]
            truth = set(small_scenario.graph.rs_members_of_ixp(name))
            assert truth <= report.members
            assert {asn for asn, source in report.sources.items()
                    if source == "lg"} == truth

    def test_linx_falls_back_to_irr_search(self, small_scenario, connectivity_reports):
        report = connectivity_reports["LINX"]
        truth = set(small_scenario.graph.rs_members_of_ixp("LINX"))
        assert not report.complete
        assert report.members
        assert report.members <= truth
        assert all(src == "irr-search" for src in report.sources.values())

    def test_as_set_used_when_no_lg(self, small_scenario, connectivity_reports):
        # AMS-IX has no route-server LG but publishes an as-set.
        report = connectivity_reports["AMS-IX"]
        assert report.members
        assert set(report.sources.values()) & {"as-set", "website"}


class TestReciprocity:
    def test_section_4_4_holds_on_scenario(self, small_scenario):
        validator = ReciprocityValidator(small_scenario.irr)
        members = small_scenario.graph.rs_members_of_ixp("AMS-IX")
        report = validator.validate("AMS-IX", members)
        assert report.members_checked > 0
        assert report.holds
        assert 0.0 <= report.fraction_import_more_permissive <= 1.0
        summary = report.summary()
        assert summary["violations"] == 0

    def test_violation_detected(self):
        irr = IRRDatabase()
        irr.register_aut_num(AutNumPolicy(asn=1, blocked_export={2},
                                          blocked_import={2, 3}))
        report = ReciprocityValidator(irr).validate("X", [1])
        assert not report.holds
        assert report.violations[0].import_blocks_not_in_export == {3}

    def test_members_without_irr_data_skipped(self):
        irr = IRRDatabase()
        report = ReciprocityValidator(irr).validate("X", [1, 2, 3])
        assert report.members_checked == 0


class TestEngineOnScenario:
    def test_precision_against_ground_truth(self, small_scenario, inference_result):
        """At least 98% of inferred links must exist (the paper validates
        98.4%); with ground truth available we check exact precision."""
        inferred = set(inference_result.matrix.all_links())
        truth = small_scenario.ground_truth_links()
        assert inferred
        true_positives = inferred & truth
        assert len(true_positives) / len(inferred) >= 0.98

    def test_recall_is_substantial(self, small_scenario, inference_result):
        inferred = set(inference_result.matrix.all_links())
        truth = small_scenario.ground_truth_links()
        assert len(inferred & truth) / len(truth) >= 0.6

    def test_most_links_invisible_in_public_bgp(self, small_scenario, inference_result):
        inferred = set(inference_result.matrix.all_links())
        bgp = small_scenario.public_bgp_links()
        fraction_visible = len(inferred & bgp) / len(inferred)
        assert fraction_visible < 0.5

    def test_per_ixp_links_between_members(self, small_scenario, inference_result):
        matrix = inference_result.matrix
        for name, plane in matrix.planes.items():
            members = set(small_scenario.graph.rs_members_of_ixp(name)) | \
                set(plane.index.universe)
            for a, b in matrix.links_of(name):
                assert a in members and b in members

    def test_table2_rows_complete(self, small_scenario, inference_result):
        rows = inference_result.table2()
        assert len(rows) == 13
        assert all(set(row) >= {"IXP", "RS", "Pasv", "Active", "Links"}
                   for row in rows)

    def test_passive_only_finds_fewer_members_than_combined(self, small_scenario):
        passive_only = small_scenario.run_inference(use_active=False)
        combined_links = small_scenario.run_inference().matrix.all_links()
        assert len(passive_only.matrix.all_links()) <= len(combined_links)

    def test_reciprocity_ablation_monotone(self, small_scenario):
        strict = small_scenario.run_inference()
        loose = small_scenario.run_inference(require_reciprocity=False)
        assert set(strict.matrix.all_links()) <= set(loose.matrix.all_links())

    def test_links_are_sorted_tuples(self, inference_result):
        all_links = inference_result.matrix.all_links()
        assert isinstance(all_links, tuple)
        assert list(all_links) == sorted(set(all_links))
        for links in inference_result.matrix.links_by_ixp().values():
            assert isinstance(links, tuple)
            assert list(links) == sorted(set(links))
            assert all(a < b for a, b in links)

    def test_multi_ixp_overlap_detected(self, inference_result):
        # Some ASes co-locate at several IXPs, so some links appear twice.
        matrix = inference_result.matrix
        per_ixp_total = sum(len(links)
                            for links in matrix.links_by_ixp().values())
        assert per_ixp_total >= len(matrix.all_links())


class TestLinkValidator:
    def test_validation_on_scenario(self, small_scenario, inference_result):
        inferred = list(inference_result.matrix.all_links())[:400]
        validator = LinkValidator(
            looking_glasses=small_scenario.validation_lgs,
            origin_prefixes=small_scenario.origin_prefixes(),
            geolocation=small_scenario.geolocation,
        )
        report = validator.validate(inferred)
        assert report.num_tested > 0
        # Confirmation should be high but not necessarily perfect: LGs that
        # display only the best path hide some genuine links (figure 8).
        assert report.confirmation_rate >= 0.7
        rates = report.rate_by_display_mode()
        assert set(rates) == {"all-paths", "best-path"}

    def test_confirmed_links_are_true_links(self, small_scenario, inference_result):
        inferred = list(inference_result.matrix.all_links())[:300]
        validator = LinkValidator(
            looking_glasses=small_scenario.validation_lgs,
            origin_prefixes=small_scenario.origin_prefixes(),
        )
        report = validator.validate(inferred)
        truth = small_scenario.ground_truth_links() | small_scenario.public_bgp_links()
        graph = small_scenario.graph
        for link in report.confirmed_links():
            assert link in truth or graph.has_link(*link)

    def test_synthetic_best_path_lg_hides_link(self):
        # The prefix reachable through AS2 (the far endpoint of the tested
        # link) is also reachable through a more-preferred path via AS5.
        prefix = Prefix.parse("11.0.0.0/24")
        prefixes_behind_far_end = {2: [prefix]}
        lg = ASLookingGlass(asn=1, display_all_paths=False)
        lg.load_route(LGRoute(prefix=prefix, as_path=(1, 5, 9), best=True))
        lg.load_route(LGRoute(prefix=prefix, as_path=(1, 2, 9), best=False))
        validator = LinkValidator([lg], origin_prefixes=prefixes_behind_far_end)
        report = validator.validate([(1, 2)])
        assert report.num_tested == 1 and report.num_confirmed == 0

        all_paths_lg = ASLookingGlass(asn=1, display_all_paths=True)
        all_paths_lg.load_route(LGRoute(prefix=prefix, as_path=(1, 5, 9), best=True))
        all_paths_lg.load_route(LGRoute(prefix=prefix, as_path=(1, 2, 9), best=False))
        report = LinkValidator(
            [all_paths_lg],
            origin_prefixes=prefixes_behind_far_end).validate([(1, 2)])
        assert report.num_confirmed == 1

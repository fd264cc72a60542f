"""Tests for the synthetic Internet generator."""

import pytest

from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.topology.as_graph import ASType, PeeringPolicy
from repro.topology.generator import (
    ExportIntent,
    GeneratorConfig,
    InternetGenerator,
    default_euro_ixps,
)
from repro.topology.relationships import LinkType

from tests.oracle.observation import is_routable_asn


@pytest.fixture(scope="module")
def internet():
    config = GeneratorConfig(seed=7, scale=0.12, ixp_member_scale=0.10)
    return InternetGenerator(config).generate()


class TestExportIntent:
    def test_all_except_semantics(self):
        intent = ExportIntent(MODE_ALL_EXCEPT, frozenset({5}))
        assert intent.allows(7)
        assert not intent.allows(5)

    def test_none_except_semantics(self):
        intent = ExportIntent(MODE_NONE_EXCEPT, frozenset({5}))
        assert intent.allows(5)
        assert not intent.allows(7)


class TestDefaultIXPs:
    def test_thirteen_ixps_of_table2(self):
        specs = default_euro_ixps()
        assert len(specs) == 13
        names = {spec.name for spec in specs}
        assert {"DE-CIX", "AMS-IX", "LINX", "MSK-IX", "BIX.BG"} <= names

    def test_member_scaling(self):
        small = default_euro_ixps(0.1)
        large = default_euro_ixps(0.5)
        assert all(s.target_members <= l.target_members
                   for s, l in zip(small, large))

    def test_linx_does_not_publish_members(self):
        linx = next(s for s in default_euro_ixps() if s.name == "LINX")
        assert not linx.publishes_member_list


class TestGeneratedInternet:
    def test_hierarchy_has_no_orphans(self, internet):
        graph = internet.graph
        tier1 = [n.asn for n in graph.nodes() if n.as_type is ASType.TIER1]
        for node in graph.nodes():
            if node.as_type is ASType.TIER1:
                continue
            assert graph.providers(node.asn), f"AS{node.asn} has no provider"
        # Tier-1s form a full peering mesh.
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert graph.has_link(a, b)

    def test_all_asns_are_routable(self, internet):
        assert all(is_routable_asn(asn) for asn in internet.graph.asns())

    def test_every_as_has_prefixes(self, internet):
        assert all(node.prefixes for node in internet.graph.nodes())

    def test_prefixes_are_globally_unique(self, internet):
        seen = set()
        for node in internet.graph.nodes():
            for prefix in node.prefixes:
                assert prefix not in seen
                seen.add(prefix)

    def test_rs_members_subset_of_ixp_members(self, internet):
        for spec in internet.ixp_specs:
            members = set(internet.graph.members_of_ixp(spec.name))
            rs_members = set(internet.graph.rs_members_of_ixp(spec.name))
            assert rs_members <= members

    def test_export_intent_for_every_rs_member(self, internet):
        for spec in internet.ixp_specs:
            for asn in internet.graph.rs_members_of_ixp(spec.name):
                assert (spec.name, asn) in internet.export_intents

    def test_mlp_ground_truth_is_reciprocal(self, internet):
        for ixp_name, pairs in internet.mlp_ground_truth.items():
            for a, b in pairs:
                intent_a = internet.export_intents[(ixp_name, a)]
                intent_b = internet.export_intents[(ixp_name, b)]
                assert intent_a.allows(b) and intent_b.allows(a)

    def test_blocked_pairs_not_in_ground_truth(self, internet):
        for ixp_name, pairs in internet.mlp_ground_truth.items():
            members = internet.graph.rs_members_of_ixp(ixp_name)
            pair_set = set(pairs)
            for i, a in enumerate(members):
                intent_a = internet.export_intents[(ixp_name, a)]
                for b in members[i + 1:]:
                    intent_b = internet.export_intents[(ixp_name, b)]
                    if not (intent_a.allows(b) and intent_b.allows(a)):
                        assert (a, b) not in pair_set

    def test_rs_p2p_links_added_to_graph(self, internet):
        rs_links = internet.graph.links(LinkType.RS_P2P)
        assert rs_links
        truth = internet.all_mlp_links()
        for link in rs_links:
            assert link.endpoints in truth

    def test_policy_mix_is_plausible(self, internet):
        nodes = list(internet.graph.nodes())
        open_count = sum(1 for n in nodes if n.policy is PeeringPolicy.OPEN)
        restrictive = sum(1 for n in nodes if n.policy is PeeringPolicy.RESTRICTIVE)
        assert open_count > restrictive

    def test_hypergiants_are_open_and_widely_present(self, internet):
        for giant in internet.hypergiants:
            node = internet.graph.get_as(giant)
            assert node.policy is PeeringPolicy.OPEN
            assert len(node.ixps) >= 5

    def test_density_of_rs_peering_high(self, internet):
        """Ground-truth density should land in the paper's 0.6-1.0 band."""
        for ixp_name, pairs in internet.mlp_ground_truth.items():
            members = internet.graph.rs_members_of_ixp(ixp_name)
            if len(members) < 10:
                continue
            possible = len(members) * (len(members) - 1) / 2
            assert 0.5 <= len(pairs) / possible <= 1.0

    def test_determinism_same_seed(self):
        config = GeneratorConfig(seed=99, scale=0.1, ixp_member_scale=0.1)
        first = InternetGenerator(config).generate()
        second = InternetGenerator(config).generate()
        assert first.all_mlp_links() == second.all_mlp_links()
        assert [str(link) for link in first.graph.links()] == \
            [str(link) for link in second.graph.links()]

    def test_different_seed_differs(self):
        a = InternetGenerator(GeneratorConfig(seed=1, scale=0.1,
                                              ixp_member_scale=0.1)).generate()
        b = InternetGenerator(GeneratorConfig(seed=2, scale=0.1,
                                              ixp_member_scale=0.1)).generate()
        assert a.all_mlp_links() != b.all_mlp_links()

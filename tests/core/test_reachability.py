"""Tests for the object steps of the oracle: reachability reconstruction
(N_a, step 4) and link inference (step 5)."""

import pytest

from repro.bgp.prefix import Prefix
from tests.oracle.reachability import openness
from tests.oracle.steps import (
    MemberReachability,
    PolicyObservation,
    infer_links,
    merge_observations,
)

MEMBERS = [10, 20, 30, 40]


def obs(member, mode, listed, prefix="11.0.0.0/24", source="active"):
    return PolicyObservation(member_asn=member, ixp_name="X",
                             prefix=Prefix.parse(prefix), mode=mode,
                             listed=frozenset(listed), source=source)


class TestPolicyObservation:
    def test_allowed_all_except(self):
        assert obs(10, "all-except", {20}).allowed(MEMBERS) == {30, 40}

    def test_allowed_none_except(self):
        assert obs(10, "none-except", {20}).allowed(MEMBERS) == {20}


class TestMergeObservations:
    def test_empty_returns_none(self):
        assert merge_observations([], MEMBERS) is None

    def test_single_observation(self):
        merged = merge_observations([obs(10, "all-except", {20})], MEMBERS)
        assert merged.mode == "all-except"
        assert merged.allows(30) and not merged.allows(20)
        assert merged.inconsistent_prefixes == 0

    def test_consistent_observations_stay_consistent(self):
        merged = merge_observations(
            [obs(10, "all-except", {20}, "11.0.0.0/24"),
             obs(10, "all-except", {20}, "11.0.1.0/24")], MEMBERS)
        assert merged.inconsistent_prefixes == 0
        assert merged.prefixes_observed == 2

    def test_inconsistent_all_except_unions_excludes(self):
        merged = merge_observations(
            [obs(10, "all-except", {20}, "11.0.0.0/24"),
             obs(10, "all-except", {30}, "11.0.1.0/24")], MEMBERS)
        assert merged.inconsistent_prefixes > 0
        assert not merged.allows(20) and not merged.allows(30)
        assert merged.allows(40)

    def test_inconsistent_none_except_intersects_includes(self):
        merged = merge_observations(
            [obs(10, "none-except", {20, 30}, "11.0.0.0/24"),
             obs(10, "none-except", {30, 40}, "11.0.1.0/24")], MEMBERS)
        assert merged.allows(30)
        assert not merged.allows(20) and not merged.allows(40)

    def test_mixed_modes_intersect_against_members(self):
        merged = merge_observations(
            [obs(10, "all-except", {20}, "11.0.0.0/24"),
             obs(10, "none-except", {30, 20}, "11.0.1.0/24")], MEMBERS)
        # First allows {30, 40}; second allows {20, 30}; intersection {30}.
        assert merged.allowed_members(MEMBERS) == {30}

    def test_mismatched_members_rejected(self):
        with pytest.raises(ValueError):
            merge_observations([obs(10, "all-except", set()),
                                obs(11, "all-except", set())], MEMBERS)

    def test_sources_recorded(self):
        merged = merge_observations(
            [obs(10, "all-except", set(), source="passive"),
             obs(10, "all-except", set(), "11.0.1.0/24", source="active")],
            MEMBERS)
        assert merged.sources == {"passive", "active"}

    def test_openness(self):
        merged = merge_observations([obs(10, "all-except", {20})], MEMBERS)
        assert openness(merged, MEMBERS) == pytest.approx(2 / 3)


class TestInferLinks:
    def reach(self, member, mode, listed):
        return MemberReachability(member_asn=member, ixp_name="X", mode=mode,
                                  listed=frozenset(listed))

    def test_reciprocal_allow_creates_link(self):
        reach = {10: self.reach(10, "all-except", set()),
                 20: self.reach(20, "all-except", set())}
        assert infer_links(reach, MEMBERS) == {(10, 20)}

    def test_one_sided_block_prevents_link(self):
        """Figure 3: C's routes are received by A, but C blocks A, so no link."""
        reach = {10: self.reach(10, "all-except", {20}),
                 20: self.reach(20, "all-except", set())}
        assert infer_links(reach, MEMBERS) == set()

    def test_members_without_reachability_contribute_nothing(self):
        reach = {10: self.reach(10, "all-except", set())}
        assert infer_links(reach, MEMBERS) == set()

    def test_none_except_pairs(self):
        reach = {10: self.reach(10, "none-except", {20}),
                 20: self.reach(20, "none-except", {10, 30}),
                 30: self.reach(30, "all-except", set())}
        links = infer_links(reach, [10, 20, 30])
        assert links == {(10, 20), (20, 30)}

    def test_figure3_full_example(self):
        """Figure 3: A excludes C; B, C, D announce to all; only A-C missing."""
        a, b, c, d = 1, 2, 3, 4
        reach = {
            a: self.reach(a, "all-except", {c}),
            b: self.reach(b, "all-except", set()),
            c: self.reach(c, "all-except", set()),
            d: self.reach(d, "all-except", set()),
        }
        links = infer_links(reach, [a, b, c, d])
        assert (a, c) not in links
        assert links == {(a, b), (a, d), (b, c), (b, d), (c, d)}

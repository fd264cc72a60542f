"""Tests for active (LG-driven) and passive (collector-driven) inference:
the looking-glass collection of ``repro.core.active`` and the object
steps of the oracle (``tests/oracle/steps.py``) built on it."""

import pytest

from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.messages import RibEntry
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.core.active import ActiveInference, collect_from_third_party_lg
from repro.core.communities import RSCommunityInterpreter
from repro.ixp.community_schemes import CommunityScheme, SchemeRegistry
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer

from tests.oracle.steps import (
    PassiveInference,
    infer_links,
    interpret_raw_observations,
    merge_observations,
)


@pytest.fixture
def decix_world():
    """A small DE-CIX with four members (the figure 3 topology)."""
    scheme = CommunityScheme.rs_asn_style("DE-CIX", 6695)
    registry = SchemeRegistry([scheme])
    rs = RouteServer("DE-CIX", 6695, scheme)
    a, b, c, d = 101, 102, 103, 104
    rs.add_member(a, MemberExportPolicy.all_except(a, "DE-CIX", {c}))
    rs.add_member(b, MemberExportPolicy.announce_to_all(b, "DE-CIX"))
    rs.add_member(c, MemberExportPolicy.announce_to_all(c, "DE-CIX"))
    rs.add_member(d, MemberExportPolicy.announce_to_all(d, "DE-CIX"))
    for index, asn in enumerate((a, b, c, d)):
        rs.announce(asn, Prefix.parse(f"11.0.{index}.0/24"))
        rs.announce(asn, Prefix.parse(f"11.1.{index}.0/24"))
    interpreter = RSCommunityInterpreter(registry, {"DE-CIX": {a, b, c, d}},
                                         mappers={"DE-CIX": rs.mapper})
    return rs, registry, interpreter, (a, b, c, d)


class TestActiveInference:
    def test_steps_1_to_3_collect_everything(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        lg = RouteServerLookingGlass(rs)
        collection = ActiveInference(lg, sample_fraction=0.5).collect()
        assert collection.members == {a, b, c, d}
        assert set(collection.announced_prefixes) == {a, b, c, d}
        assert collection.members_with_communities() == {a, b, c, d}
        assert collection.total_queries == lg.counter.total
        assert collection.plan is not None

    def test_full_pipeline_reproduces_figure3(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        lg = RouteServerLookingGlass(rs)
        collection = ActiveInference(lg).collect()
        observations = interpret_raw_observations(
            interpreter, "DE-CIX", collection.observations, "active")
        members = collection.members
        reach = {}
        for asn in members:
            merged = merge_observations(
                [o for o in observations if o.member_asn == asn], members)
            if merged:
                reach[asn] = merged
        links = infer_links(reach, members)
        assert (a, c) not in links
        assert len(links) == 5

    def test_skip_members_are_not_queried(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        lg = RouteServerLookingGlass(rs)
        collection = ActiveInference(lg).collect(skip_members={a, b})
        assert a not in collection.announced_prefixes
        assert a not in collection.members_with_communities()
        # Membership (step 1) still includes the skipped ASes.
        assert collection.members == {a, b, c, d}


class TestThirdPartyLG:
    def test_member_lg_exposes_partial_communities(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        lg = ASLookingGlass(asn=d)
        lg.load_route_server_exports(rs)
        collection = collect_from_third_party_lg(
            "DE-CIX", lg, [a, b, c, d], interpreter)
        assert collection.lg_asn == d
        # d receives routes from a, b and c, so it sees their communities.
        assert collection.members_with_communities() == {a, b, c}
        observations = interpret_raw_observations(
            interpreter, "DE-CIX", collection.observations, "third-party")
        a_observations = [o for o in observations if o.member_asn == a]
        assert all(o.mode == "all-except" and c in o.listed
                   for o in a_observations)

    def test_blocked_member_invisible_to_third_party(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        # c's LG never sees a's routes because a excludes c.
        lg = ASLookingGlass(asn=c)
        lg.load_route_server_exports(rs)
        collection = collect_from_third_party_lg(
            "DE-CIX", lg, [a, b, c, d], interpreter)
        assert a not in collection.members_with_communities()


class TestPassiveInference:
    def entry(self, path, communities, prefix="11.0.0.0/24", peer=None):
        return RibEntry(peer_asn=peer if peer is not None else path[0],
                        prefix=Prefix.parse(prefix),
                        as_path=ASPath(path),
                        communities=frozenset(communities))

    def test_figure4_setter_identification_two_participants(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        passive = PassiveInference(interpreter)
        # Path E D A where D and A are members; A tagged NONE+INCLUDE(B, D).
        e = 999
        entry = self.entry([e, d, a],
                           [Community(0, 6695), Community(6695, b),
                            Community(6695, d)])
        observations = passive.extract([entry])
        assert len(observations) == 1
        assert observations[0].setter_asn == a
        assert observations[0].ixp_name == "DE-CIX"

    def test_three_participants_use_relationships(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        e = 999
        relationships = {
            (e, d): Relationship.PROVIDER,   # e sees d as provider (e customer)
            (d, a): Relationship.RS_PEER,
        }
        # e is a member too, so three participants appear on the path.
        with_e = RSCommunityInterpreter(
            registry, {"DE-CIX": {a, b, c, d, e}},
            mappers={"DE-CIX": rs.mapper})
        passive = PassiveInference(with_e, relationships)
        entry = self.entry([e, d, a], [Community(6695, 6695)], peer=e)
        observations = passive.extract([entry])
        assert len(observations) == 1
        assert observations[0].setter_asn == a

    def test_single_participant_cannot_pinpoint(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        passive = PassiveInference(interpreter)
        entry = self.entry([999, 888, a], [Community(6695, 6695)])
        assert passive.extract([entry]) == []
        assert passive.stats.entries_without_setter == 1

    def test_dirty_and_communityless_entries_skipped(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        passive = PassiveInference(interpreter)
        dirty = self.entry([999, 23456, a], [Community(6695, 6695)])
        plain = self.entry([999, d, a], [])
        foreign = self.entry([999, d, a], [Community(3356, 1)])
        assert passive.extract([dirty, plain, foreign]) == []
        assert passive.stats.entries_dirty == 1
        assert passive.stats.entries_without_rs_communities == 2

    def test_covered_members_and_prefixes(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        passive = PassiveInference(interpreter)
        entries = [
            self.entry([999, d, a], [Community(6695, 6695)], "11.0.0.0/24"),
            self.entry([999, d, b], [Community(6695, 6695)], "11.0.1.0/24"),
        ]
        observations = passive.extract(entries)
        covered = passive.covered_members(observations)
        assert covered["DE-CIX"] == {a, b}
        assert Prefix.parse("11.0.0.0/24") in {
            o.prefix for o in observations if o.setter_asn == a}

    def test_policy_observations_conversion(self, decix_world):
        rs, registry, interpreter, (a, b, c, d) = decix_world
        passive = PassiveInference(interpreter)
        entry = self.entry([999, d, a],
                           [Community(6695, 6695), Community(0, c)])
        observations = passive.extract([entry])
        policies = passive.policy_observations(observations)
        assert policies[0].mode == "all-except"
        assert c in policies[0].listed
        assert policies[0].source == "passive"

"""Deterministic ordering of merge/inference outputs.

The bugfix sweep for the runtime-substrate refactor requires that
observation merging and link de-duplication do not depend on set/dict
iteration order: shuffling the inputs must produce identical results,
links are emitted as sorted pairs, and result-level orderings break ties
deterministically.
"""

import random

from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.bgp.prefix import Prefix
from repro.runtime.reachmatrix import ReachabilityMatrix, link_keys_of

from tests.oracle.inference import differences
from tests.oracle.reachability import plane_of_rows
from tests.oracle.steps import (
    MemberReachability,
    PolicyObservation,
    infer_links,
    merge_observations,
)


def _observation(member, mode, listed, prefix_index=0):
    return PolicyObservation(
        member_asn=member, ixp_name="DE-CIX",
        prefix=Prefix.from_octets(10, 0, prefix_index, 0, 24),
        mode=mode, listed=frozenset(listed))


class TestMergeDeterminism:
    def test_shuffled_observations_merge_identically(self):
        members = set(range(100, 140))
        observations = [
            _observation(100, MODE_ALL_EXCEPT, {101, 102}, 0),
            _observation(100, MODE_ALL_EXCEPT, {103}, 1),
            _observation(100, MODE_NONE_EXCEPT, {104, 105, 106}, 2),
        ]
        baseline = merge_observations(observations, members)
        for seed in range(10):
            shuffled = list(observations)
            random.Random(seed).shuffle(shuffled)
            merged = merge_observations(shuffled, sorted(members))
            assert merged.mode == baseline.mode
            assert merged.listed == baseline.listed
            assert merged.inconsistent_prefixes == baseline.inconsistent_prefixes


class TestInferLinksDeterminism:
    def _reachabilities(self, rng, members):
        reachabilities = {}
        for member in members:
            if rng.random() < 0.2:
                continue  # no reconstructed reachability
            if rng.random() < 0.5:
                listed = frozenset(rng.sample(members, rng.randint(0, 5)))
                mode = MODE_ALL_EXCEPT
            else:
                listed = frozenset(rng.sample(members, rng.randint(0, 20)))
                mode = MODE_NONE_EXCEPT
            reachabilities[member] = MemberReachability(
                member_asn=member, ixp_name="DE-CIX", mode=mode, listed=listed)
        return reachabilities

    def test_bitset_links_match_pairwise_allows(self):
        rng = random.Random(42)
        members = list(range(200, 260))
        reachabilities = self._reachabilities(rng, members)

        expected = set()
        ordered = sorted(members)
        for i, a in enumerate(ordered):
            reach_a = reachabilities.get(a)
            if reach_a is None:
                continue
            for b in ordered[i + 1:]:
                reach_b = reachabilities.get(b)
                if reach_b is None:
                    continue
                if reach_a.allows(b) and reach_b.allows(a):
                    expected.add((a, b))

        assert infer_links(reachabilities, members) == expected
        # Input ordering is irrelevant.
        shuffled = list(members)
        rng.shuffle(shuffled)
        assert infer_links(reachabilities, shuffled) == expected
        # Every link is a sorted pair.
        for a, b in expected:
            assert a < b

    def test_non_reciprocal_mode_matches_pairwise_or(self):
        rng = random.Random(7)
        members = list(range(300, 340))
        reachabilities = self._reachabilities(rng, members)

        expected = set()
        ordered = sorted(members)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                reach_a = reachabilities.get(a)
                reach_b = reachabilities.get(b)
                allow_ab = reach_a.allows(b) if reach_a else False
                allow_ba = reach_b.allows(a) if reach_b else False
                if allow_ab or allow_ba:
                    expected.add((a, b))

        assert infer_links(reachabilities, members,
                           require_reciprocity=False) == expected


def _matrix(links_by_ixp):
    """A matrix over empty planes that reports the given per-IXP links."""
    members = {name: {asn for link in links for asn in link}
               for name, links in links_by_ixp.items()}
    planes = {name: plane_of_rows(name, members[name])
              for name in links_by_ixp}
    return ReachabilityMatrix(
        planes, links_by_ixp=links_by_ixp,
        keys_by_ixp={name: link_keys_of(links)
                     for name, links in links_by_ixp.items()})


class TestResultOrderingDeterminism:
    def test_peer_counts_insertion_order_is_sorted(self):
        matrix = _matrix({"DE-CIX": ((1, 9), (2, 3), (5, 9))})
        assert list(matrix.peer_counts()) == [1, 2, 3, 5, 9]

    def test_all_member_asns_is_sorted_tuple(self):
        """The ASNs on inferred links, ascending across IXPs: the keys
        of the matrix's peer counts."""
        matrix = _matrix({"DE-CIX": ((3, 9), (1, 2)), "LINX": ((2, 7),)})
        assert tuple(matrix.peer_counts()) == (1, 2, 3, 7, 9)
        assert matrix.all_links() == ((1, 2), (2, 7), (3, 9))


class TestSetterCacheScoping:
    """Setter attribution depends only on the inputs it is handed: the
    relationship map and the members of the interpreter it reads, both
    fixed when they are built, so no state carries over between
    attributions."""

    def _interpreter(self, members):
        from repro.core.communities import RSCommunityInterpreter
        from repro.ixp.community_schemes import CommunityScheme, SchemeRegistry
        scheme = CommunityScheme.rs_asn_style("DE-CIX", rs_asn=6695)
        return RSCommunityInterpreter(SchemeRegistry([scheme]),
                                      {"DE-CIX": members})

    def test_setter_depends_on_relationship_map(self):
        from repro.bgp.attributes import ASPath
        from repro.bgp.messages import RibEntry
        from repro.bgp.policy import Relationship
        from tests.oracle.steps import PassiveInference
        interpreter = self._interpreter({100, 200, 300})
        entry = RibEntry(peer_asn=400, prefix=Prefix.parse("10.0.0.0/24"),
                         as_path=ASPath((300, 200, 100)))
        # Three participants: the p2p pair decides the setter; flipping
        # the relationship map must flip the attribution (no sharing).
        with_first_pair = PassiveInference(interpreter, {
            (300, 200): Relationship.PEER,
            (200, 100): Relationship.PROVIDER})
        with_second_pair = PassiveInference(interpreter, {
            (300, 200): Relationship.PROVIDER,
            (200, 100): Relationship.PEER})
        assert with_first_pair.identify_setter("DE-CIX", entry.as_path) == 200
        assert with_second_pair.identify_setter("DE-CIX", entry.as_path) == 100

    def test_setter_follows_the_interpreters_members(self):
        from repro.bgp.attributes import ASPath
        from tests.oracle.steps import PassiveInference
        path = ASPath((300, 200, 100))

        def setter(members):
            passive = PassiveInference(self._interpreter(members))
            return passive.identify_setter("DE-CIX", path)

        # Two participants: the one closer to the origin is the setter.
        assert setter({100, 200}) == 100
        # AS300 joins the RS: three participants, no known p2p pair ->
        # the conservative fallback.
        assert setter({100, 200, 300}) == 100
        assert setter({200, 300}) == 200


class TestEndToEndDeterminism:
    def test_rerunning_inference_is_identical(self, small_scenario,
                                              inference_result):
        rerun = small_scenario.run_inference()
        assert rerun.matrix.all_links() == inference_result.matrix.all_links()
        assert rerun.table2() == inference_result.table2()
        assert differences(rerun, inference_result) == []

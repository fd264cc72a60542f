"""Tests for the per-IXP route-server community grammars (Table 1)."""

import pytest

from repro.bgp.asn import Private16BitMapper
from repro.bgp.communities import Community
from repro.ixp.community_schemes import (
    CommunityScheme,
    RSAction,
    SchemeRegistry,
)


@pytest.fixture
def decix():
    return CommunityScheme.rs_asn_style("DE-CIX", 6695)


@pytest.fixture
def ecix():
    return CommunityScheme.offset_style("ECIX", 9033)


class TestTable1Encodings:
    def test_decix_values_match_table1(self, decix):
        assert decix.all_community == Community(6695, 6695)
        assert decix.none_community == Community(0, 6695)
        assert decix.exclude(5410) == Community(0, 5410)
        assert decix.include(8359) == Community(6695, 8359)

    def test_ecix_values_match_table1(self, ecix):
        assert ecix.all_community == Community(9033, 9033)
        assert ecix.none_community == Community(65000, 0)
        assert ecix.exclude(5410) == Community(64960, 5410)
        assert ecix.include(8359) == Community(65000, 8359)

    def test_32bit_rs_asn_rejected(self):
        with pytest.raises(ValueError):
            CommunityScheme.rs_asn_style("X", 200000)

    def test_from_style_dispatch(self):
        assert CommunityScheme.from_style("rs-asn", "A", 100).include_high == 100
        assert CommunityScheme.from_style("offset", "B", 100).exclude_high == 64960
        assert CommunityScheme.from_style("zero-exclude", "C", 100).omit_all_by_default
        with pytest.raises(ValueError):
            CommunityScheme.from_style("bogus", "D", 100)

    def test_table1_row(self, decix):
        row = decix.table1_row()
        assert row["ALL"] == "6695:6695"
        assert row["EXCLUDE"] == "0:peer-asn"


class TestClassification:
    def test_classify_each_action(self, decix):
        assert decix.classify(Community(6695, 6695)).action is RSAction.ALL
        assert decix.classify(Community(0, 6695)).action is RSAction.NONE
        excl = decix.classify(Community(0, 5410))
        assert excl.action is RSAction.EXCLUDE and excl.peer_asn == 5410
        incl = decix.classify(Community(6695, 8359))
        assert incl.action is RSAction.INCLUDE and incl.peer_asn == 8359

    def test_foreign_community_not_classified(self, decix):
        assert decix.classify(Community(3356, 100)) is None
        assert not decix.is_rs_community(Community(3356, 100))

    def test_mentions_rs_asn(self, decix):
        assert decix.mentions_rs_asn([Community(6695, 6695)])
        assert decix.mentions_rs_asn([Community(0, 6695)])
        assert not decix.mentions_rs_asn([Community(0, 5410)])

    def test_figure2_example_none_include(self, decix):
        """Figure 2a: 0:6695 6695:8359 6695:8447 -> only 8359 and 8447."""
        communities = [Community(0, 6695), Community(6695, 8359),
                       Community(6695, 8447)]
        classified = decix.classify_set(communities)
        actions = {c.action for _, c in classified}
        assert RSAction.NONE in actions and RSAction.INCLUDE in actions

    def test_figure2_example_all_exclude(self, decix):
        """Figure 2b: 6695:6695 0:5410 0:8732 -> all except 5410, 8732."""
        communities = [Community(6695, 6695), Community(0, 5410),
                       Community(0, 8732)]
        classified = decix.classify_set(communities)
        excluded = {c.peer_asn for _, c in classified
                    if c.action is RSAction.EXCLUDE}
        assert excluded == {5410, 8732}


class TestEncoding:
    def test_encode_all_except(self, decix):
        communities = decix.encode_policy("all-except", [5410, 8732])
        assert Community(6695, 6695) in communities
        assert Community(0, 5410) in communities
        assert Community(0, 8732) in communities

    def test_encode_none_except(self, decix):
        communities = decix.encode_policy("none-except", [8359])
        assert Community(0, 6695) in communities
        assert Community(6695, 8359) in communities

    def test_encode_unknown_mode_rejected(self, decix):
        with pytest.raises(ValueError):
            decix.encode_policy("sometimes", [])

    def test_omit_all_by_default_leaves_bare_excludes(self):
        mskix = CommunityScheme.zero_exclude_style("MSK-IX", 8631)
        communities = mskix.encode_policy("all-except", [5410])
        assert communities == frozenset({Community(0, 5410)})
        # No community at all for the pure-default policy.
        assert mskix.encode_policy("all-except", []) == frozenset()

    def test_32bit_peer_requires_mapper(self, decix):
        with pytest.raises(ValueError):
            decix.exclude(200000)
        mapper = Private16BitMapper()
        mapper.register(200000)
        community = decix.exclude(200000, mapper)
        assert community.high == 0
        assert mapper.resolve(community.low) == 200000

    def test_encode_decode_roundtrip(self, ecix):
        communities = ecix.encode_policy("all-except", [100, 200])
        classified = ecix.classify_set(communities)
        excluded = {c.peer_asn for _, c in classified
                    if c.action is RSAction.EXCLUDE}
        assert excluded == {100, 200}


class TestRegistry:
    def test_registry_lookup_and_table(self, decix, ecix):
        registry = SchemeRegistry([decix, ecix])
        assert registry.get("DE-CIX") is decix
        assert "ECIX" in registry
        assert len(registry) == 2
        assert len(registry.table1()) == 2



class TestFromStyleEdgeCases:
    def test_unknown_style_names_the_offender(self):
        with pytest.raises(ValueError, match="sideways"):
            CommunityScheme.from_style("sideways", "X", 100)

    @pytest.mark.parametrize("style", ["rs-asn", "zero-exclude", "offset"])
    def test_32bit_rs_asn_rejected_for_every_style(self, style):
        with pytest.raises(ValueError, match="16 bits"):
            CommunityScheme.from_style(style, "X", 200000)

    def test_styles_produce_distinct_grammars(self):
        rs, zero, offset = (CommunityScheme.from_style(style, "X", 100)
                            for style in ("rs-asn", "zero-exclude", "offset"))
        assert rs.exclude_high == zero.exclude_high == 0
        assert offset.exclude_high == 64960
        assert not rs.omit_all_by_default
        assert zero.omit_all_by_default


class TestClassificationCollisions:
    """ASN values colliding with the scheme's fixed-valued communities:
    the fixed forms (ALL / NONE) must win over the per-peer readings."""

    def test_rs_asn_style_exclude_of_rs_asn_reads_as_none(self, decix):
        # EXCLUDE(6695) encodes as 0:6695, which *is* the NONE community.
        collision = decix.exclude(6695)
        assert collision == decix.none_community
        assert decix.classify(collision).action is RSAction.NONE

    def test_offset_style_include_of_zero_reads_as_none(self, ecix):
        # INCLUDE(0) encodes as 65000:0, which *is* the NONE community.
        collision = ecix.include(0)
        assert collision == ecix.none_community
        assert ecix.classify(collision).action is RSAction.NONE

    def test_offset_style_rs_asn_colliding_with_exclude_high(self):
        # An RS ASN equal to the EXCLUDE offset: ALL (64960:64960) must
        # not be mis-read as EXCLUDE(64960).
        scheme = CommunityScheme.offset_style("WEIRD-IX", 64960)
        all_classified = scheme.classify(Community(64960, 64960))
        assert all_classified.action is RSAction.ALL
        # Other 64960:* values still classify as per-peer EXCLUDEs.
        excl = scheme.classify(Community(64960, 7))
        assert excl.action is RSAction.EXCLUDE and excl.peer_asn == 7

    def test_offset_style_peer_equal_to_include_high(self, ecix):
        # INCLUDE(65000) is representable and classifies as an include.
        community = ecix.include(65000)
        classified = ecix.classify(community)
        assert classified.action is RSAction.INCLUDE
        assert classified.peer_asn == 65000


class TestZeroExcludeRoundTrip:
    @pytest.fixture
    def mskix(self):
        return CommunityScheme.zero_exclude_style("MSK-IX", 8631)

    def test_round_trip_recovers_excluded_peers(self, mskix):
        encoded = mskix.encode_policy("all-except", [5410, 8732])
        classified = mskix.classify_set(encoded)
        assert {c.peer_asn for _, c in classified
                if c.action is RSAction.EXCLUDE} == {5410, 8732}
        # No ALL marker -> the RS ASN never appears: the section 4.2
        # disambiguation path has to work without it.
        assert not mskix.mentions_rs_asn(encoded)

    def test_empty_policy_round_trips_to_no_communities(self, mskix):
        encoded = mskix.encode_policy("all-except", [])
        assert encoded == frozenset()
        assert mskix.classify_set(encoded) == []

    def test_forced_all_marker_restores_rs_asn_signal(self, mskix):
        encoded = mskix.encode_policy("all-except", [5410],
                                      include_all_marker=True)
        assert mskix.all_community in encoded
        assert mskix.mentions_rs_asn(encoded)

    def test_none_except_unaffected_by_omission_default(self, mskix):
        encoded = mskix.encode_policy("none-except", [5410])
        actions = {c.action for _, c in mskix.classify_set(encoded)}
        assert actions == {RSAction.NONE, RSAction.INCLUDE}

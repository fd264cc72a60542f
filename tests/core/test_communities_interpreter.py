"""Tests for RS community interpretation and IXP identification."""

import pytest

from repro.bgp.asn import Private16BitMapper
from repro.bgp.communities import Community
from repro.core.communities import RSCommunityInterpreter
from repro.ixp.community_schemes import CommunityScheme, SchemeRegistry


@pytest.fixture
def interpreter():
    registry = SchemeRegistry([
        CommunityScheme.rs_asn_style("DE-CIX", 6695),
        CommunityScheme.zero_exclude_style("MSK-IX", 8631),
        CommunityScheme.offset_style("ECIX", 9033),
    ])
    members = {
        "DE-CIX": {100, 200, 300, 8359, 8447},
        "MSK-IX": {100, 500, 600},
        "ECIX": {700, 800},
    }
    return RSCommunityInterpreter(registry, members)


class TestInterpretation:
    def test_all_exclude_interpretation(self, interpreter):
        policy = interpreter.interpret_for_ixp(
            "DE-CIX", [Community(6695, 6695), Community(0, 200)])
        assert policy.mode == "all-except"
        assert policy.listed == frozenset({200})

    def test_none_include_interpretation(self, interpreter):
        policy = interpreter.interpret_for_ixp(
            "DE-CIX", [Community(0, 6695), Community(6695, 8359)])
        assert policy.mode == "none-except"
        assert 8359 in policy.listed and 8447 not in policy.listed

    def test_none_wins_over_all(self, interpreter):
        policy = interpreter.interpret_for_ixp(
            "DE-CIX", [Community(6695, 6695), Community(0, 6695),
                       Community(6695, 100)])
        assert policy.mode == "none-except"

    def test_unrelated_communities_ignored(self, interpreter):
        assert interpreter.interpret_for_ixp("ECIX", [Community(3356, 1)]) is None

    def test_unresolved_peer_recorded(self, interpreter):
        policy = interpreter.interpret_for_ixp(
            "DE-CIX", [Community(6695, 6695), Community(0, 9999)])
        assert 9999 in policy.unresolved

    def test_32bit_alias_resolved_through_mapper(self):
        registry = SchemeRegistry([CommunityScheme.rs_asn_style("DE-CIX", 6695)])
        mapper = Private16BitMapper()
        alias = mapper.register(200000)
        interpreter = RSCommunityInterpreter(
            registry, {"DE-CIX": {100, 200000}}, mappers={"DE-CIX": mapper})
        policy = interpreter.interpret_for_ixp(
            "DE-CIX", [Community(6695, 6695), Community(0, alias)])
        assert 200000 in policy.listed


class TestIXPIdentification:
    def test_rs_asn_match_identifies_ixp(self, interpreter):
        identification = interpreter.identify_unique_ixp(
            [Community(6695, 6695), Community(0, 200)])
        assert identification.ixp_name == "DE-CIX"
        assert identification.rs_asn_match

    def test_bare_excludes_disambiguated_by_membership(self, interpreter):
        # 0:500 and 0:600 are EXCLUDEs valid under both DE-CIX and MSK-IX
        # grammars, but only MSK-IX has both 500 and 600 as members.
        identification = interpreter.identify_unique_ixp(
            [Community(0, 500), Community(0, 600)])
        assert identification is not None
        assert identification.ixp_name == "MSK-IX"
        assert not identification.rs_asn_match

    def test_truly_ambiguous_returns_none(self, interpreter):
        # AS100 is a member of both DE-CIX and MSK-IX: a bare 0:100 could
        # belong to either, so the conservative answer is None.
        assert interpreter.identify_unique_ixp([Community(0, 100)]) is None

    def test_no_rs_communities_returns_nothing(self, interpreter):
        assert interpreter.identify_ixps([Community(3356, 64)]) == []
        assert interpreter.identify_unique_ixp([]) is None

    def test_rs_communities_only_filter(self, interpreter):
        communities = [Community(6695, 6695), Community(3356, 7)]
        filtered = interpreter.rs_communities_only("DE-CIX", communities)
        assert filtered == frozenset({Community(6695, 6695)})

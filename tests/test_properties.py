"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.bgp.asn import Private16BitMapper
from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.core.query_cost import QueryCostModel
from repro.ixp.community_schemes import CommunityScheme, RSAction

from tests.oracle.observation import path_links
from tests.oracle.steps import (
    MemberReachability,
    PolicyObservation,
    infer_links,
    merge_observations,
)

asns16 = st.integers(min_value=1, max_value=65000)
member_sets = st.sets(asns16, min_size=2, max_size=12)


# ---------------------------------------------------------------------------
# Prefix properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=32))
def test_prefix_parse_roundtrip(network, length):
    prefix = Prefix(network, length)
    assert Prefix.parse(str(prefix)) == prefix


# ---------------------------------------------------------------------------
# AS path properties
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=400000), min_size=1, max_size=12))
def test_aspath_dedup_idempotent_and_links_symmetric(asns):
    path = ASPath(asns)
    deduped = path.deduplicated()
    assert deduped.deduplicated() == deduped
    for a, b in path_links(path):
        assert a <= b


# ---------------------------------------------------------------------------
# Community scheme properties: encode/classify duality
# ---------------------------------------------------------------------------

scheme_strategy = st.sampled_from([
    CommunityScheme.rs_asn_style("DE-CIX", 6695),
    CommunityScheme.offset_style("ECIX", 9033),
    CommunityScheme.rs_asn_style("PLIX", 8545),
])


@given(scheme_strategy, st.sets(asns16, min_size=0, max_size=8))
def test_scheme_all_except_roundtrip(scheme, excluded):
    communities = scheme.encode_policy("all-except", sorted(excluded))
    classified = scheme.classify_set(communities)
    decoded_excludes = {c.peer_asn for _, c in classified
                        if c.action is RSAction.EXCLUDE}
    # The ALL marker may collide with an EXCLUDE of the RS ASN itself; skip
    # that pathological value.
    expected = {asn for asn in excluded if asn != scheme.rs_asn}
    assert decoded_excludes >= expected
    assert not any(c.action is RSAction.NONE for _, c in classified
                   if scheme.rs_asn not in excluded)


@given(scheme_strategy, st.sets(asns16, min_size=1, max_size=8))
def test_scheme_none_except_roundtrip(scheme, included):
    communities = scheme.encode_policy("none-except", sorted(included))
    classified = scheme.classify_set(communities)
    assert any(c.action is RSAction.NONE for _, c in classified)
    decoded_includes = {c.peer_asn for _, c in classified
                        if c.action is RSAction.INCLUDE}
    assert decoded_includes >= {asn for asn in included
                                if asn != scheme.rs_asn and asn != 0}


@given(st.sets(st.integers(min_value=70000, max_value=4_000_000_000),
               min_size=1, max_size=20))
def test_private_mapper_bijective(asns):
    mapper = Private16BitMapper()
    aliases = [mapper.register(asn) for asn in sorted(asns)]
    assert len(set(aliases)) == len(set(asns))
    for asn in asns:
        assert mapper.resolve(mapper.alias_for(asn)) == asn


# ---------------------------------------------------------------------------
# Reachability / inference invariants
# ---------------------------------------------------------------------------

@given(member_sets, st.data())
def test_inferred_links_are_reciprocal_and_within_members(members, data):
    members = sorted(members)
    reachabilities = {}
    for asn in members:
        mode = data.draw(st.sampled_from(["all-except", "none-except"]))
        listed = data.draw(st.sets(st.sampled_from(members), max_size=len(members)))
        reachabilities[asn] = MemberReachability(
            member_asn=asn, ixp_name="X", mode=mode,
            listed=frozenset(listed))
    links = infer_links(reachabilities, members)
    for a, b in links:
        assert a < b
        assert a in members and b in members
        assert reachabilities[a].allows(b)
        assert reachabilities[b].allows(a)
    # Completeness: every reciprocal-allow pair is present.
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if reachabilities[a].allows(b) and reachabilities[b].allows(a):
                assert (a, b) in links


@given(member_sets, st.data())
@settings(max_examples=50)
def test_merged_reachability_is_intersection(members, data):
    members = sorted(members)
    member_asn = members[0]
    observations = []
    num_observations = data.draw(st.integers(min_value=1, max_value=4))
    for index in range(num_observations):
        mode = data.draw(st.sampled_from(["all-except", "none-except"]))
        listed = data.draw(st.sets(st.sampled_from(members), max_size=len(members)))
        observations.append(PolicyObservation(
            member_asn=member_asn, ixp_name="X",
            prefix=Prefix(0x0B000000 + index * 256, 24),
            mode=mode, listed=frozenset(listed)))
    merged = merge_observations(observations, members)
    expected = None
    for observation in observations:
        allowed = observation.allowed(members)
        expected = allowed if expected is None else expected & allowed
    assert merged.allowed_members(members) == expected


# ---------------------------------------------------------------------------
# Query-cost invariants
# ---------------------------------------------------------------------------

@given(st.dictionaries(asns16, st.integers(min_value=1, max_value=30),
                       min_size=1, max_size=15))
@settings(max_examples=40)
def test_query_plan_meets_targets_and_never_exceeds_sampled_cost(prefix_counts):
    announced = {}
    counter = 0
    shared = Prefix(0x0B000000, 24)
    for asn, count in prefix_counts.items():
        prefixes = [shared]
        for _ in range(count - 1):
            counter += 1
            prefixes.append(Prefix(0x0C000000 + counter * 256, 24))
        announced[asn] = prefixes
    model = QueryCostModel("X", announced)
    plan = model.build_plan()
    for asn, target in plan.targets.items():
        assert plan.covered[asn] >= target
    breakdown = model.cost_breakdown()
    assert breakdown.optimised <= breakdown.sampled <= breakdown.exhaustive
    assert breakdown.with_passive <= breakdown.optimised

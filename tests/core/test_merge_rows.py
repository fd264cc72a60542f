"""The one merge rule of step 4 against the object oracle.

:func:`repro.core.planes.merge_rows` merges every member's interned
observation rows on policy ids;
:func:`tests.oracle.steps.merge_observations` merges the same
observations as :class:`~tests.oracle.steps.PolicyObservation` objects
with set arithmetic.  Both must give every member the same mode, listed
set, sources, prefix count and inconsistent count, in the same member
order: on seeded random members and on hand-built cases, including
mixed modes, which no registered scenario reaches.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

import pytest

from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.bgp.prefix import Prefix
from repro.core.planes import SOURCE_NAMES, PolicyTable, merge_rows
from repro.runtime.interning import Interner

from tests.oracle.steps import PolicyObservation, merge_observations

#: One observation: (member ASN, prefix index, mode, listed, source code).
Observation = Tuple[int, int, str, frozenset, int]

ALL, NONE = MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
PASSIVE, ACTIVE, THIRD_PARTY = range(3)


def _prefix(index: int) -> Prefix:
    return Prefix.from_octets(10, index // 256, index % 256, 0, 24)


def merged_rows(observations: Sequence[Observation], members: Set[int]):
    """``merge_rows`` over the interned rows of *observations*."""
    policies, prefixes = PolicyTable(), Interner()
    rows = [(asn, prefixes.intern(_prefix(prefix)),
             policies.intern(mode, listed), source)
            for asn, prefix, mode, listed, source in observations]
    return merge_rows(rows, members, policies)


def merge_differences(observations: Sequence[Observation],
                      members: Set[int]) -> List[str]:
    """Every way :func:`merged_rows` disagrees with
    ``merge_observations`` per member (empty means identical)."""
    merged = merged_rows(observations, members)

    by_member = {}
    for asn, prefix, mode, listed, source in observations:
        if members and asn not in members:
            continue
        by_member.setdefault(asn, []).append(PolicyObservation(
            member_asn=asn, ixp_name="X", prefix=_prefix(prefix),
            mode=mode, listed=listed, source=SOURCE_NAMES[source]))
    if list(merged) != list(by_member):
        return [f"members {list(merged)} != {list(by_member)}"]
    problems = []
    for asn, member_observations in by_member.items():
        expected = merge_observations(member_observations, members)
        (mode, listed), sources, observed, inconsistent = merged[asn]
        for name, mine, theirs in (
                ("mode", mode, expected.mode),
                ("listed", listed, expected.listed),
                ("sources", sources, expected.sources),
                ("prefixes", observed, expected.prefixes_observed),
                ("inconsistent", inconsistent,
                 expected.inconsistent_prefixes)):
            if mine != theirs:
                problems.append(f"AS{asn} {name}: {mine!r} != {theirs!r}")
    return problems


def _random_case(rng: random.Random):
    """A population of 0-12 ASNs and 1-4 members (inside or outside it),
    each with 1-8 rows over a few prefixes (so prefixes repeat), listed
    sets that mix population, outside and no ASNs, and all three
    sources."""
    pool = list(range(1, 21))
    population = set(rng.sample(pool, rng.randint(0, 12)))
    observations = []
    for asn in rng.sample(pool, rng.randint(1, 4)):
        for _ in range(rng.randint(1, 8)):
            listed = frozenset(rng.sample(pool, rng.randint(0, 5)))
            observations.append((asn, rng.randint(0, 4),
                                 rng.choice((ALL, NONE)), listed,
                                 rng.randrange(3)))
    rng.shuffle(observations)
    return observations, population


def test_random_members_merge_like_the_oracle():
    rng = random.Random(20130507)
    modes_seen = {"single": 0, "all": 0, "none": 0, "mixed": 0}
    for _ in range(2000):
        observations, population = _random_case(rng)
        assert merge_differences(observations, population) == []
        for asn in {row[0] for row in observations}:
            policies = {(row[2], row[3]) for row in observations
                        if row[0] == asn}
            modes = {mode for mode, _ in policies}
            key = ("single" if len(policies) == 1 else
                   "mixed" if len(modes) == 2 else
                   "all" if modes == {ALL} else "none")
            modes_seen[key] += 1
    # Every branch of the rule is exercised many times.
    assert min(modes_seen.values()) > 100, modes_seen


MEMBERS = {10, 20, 30, 40, 50}


@pytest.mark.parametrize("observations, expected", [
    pytest.param([(10, 0, ALL, frozenset({20}), ACTIVE),
                  (10, 1, ALL, frozenset({20}), PASSIVE)],
                 ((ALL, frozenset({20})), {"active", "passive"}, 2, 0),
                 id="one-policy"),
    pytest.param([(10, 0, ALL, frozenset({20}), ACTIVE),
                  (10, 1, ALL, frozenset({30}), ACTIVE),
                  (10, 2, ALL, frozenset({20}), ACTIVE)],
                 ((ALL, frozenset({20, 30})), {"active"}, 3, 1),
                 id="all-except"),
    pytest.param([(10, 0, NONE, frozenset({20, 30, 40}), THIRD_PARTY),
                  (10, 1, NONE, frozenset({30, 40}), THIRD_PARTY),
                  (10, 2, NONE, frozenset({40, 50}), THIRD_PARTY)],
                 ((NONE, frozenset({40})), {"third-party"}, 3, 2),
                 id="none-except"),
    pytest.param([(10, 0, ALL, frozenset({20}), ACTIVE),
                  (10, 1, NONE, frozenset({20, 30, 40}), PASSIVE),
                  (10, 1, NONE, frozenset({20, 30, 40}), ACTIVE)],
                 ((NONE, frozenset({30, 40})), {"active", "passive"}, 2, 1),
                 id="mixed-modes"),
    pytest.param([(10, 0, ALL, frozenset({99}), ACTIVE),
                  (10, 1, ALL, frozenset({20, 98}), ACTIVE)],
                 ((ALL, frozenset({20, 98, 99})), {"active"}, 2, 1),
                 id="all-except-outside-population"),
    pytest.param([(10, 0, NONE, frozenset({20, 99}), ACTIVE),
                  (10, 1, NONE, frozenset({30, 99}), ACTIVE)],
                 ((NONE, frozenset({99})), {"active"}, 2, 1),
                 id="none-except-outside-population"),
    pytest.param([(10, 0, ALL, frozenset({99}), ACTIVE),
                  (10, 1, NONE, frozenset({10, 20, 99}), ACTIVE)],
                 ((NONE, frozenset({20})), {"active"}, 2, 1),
                 id="mixed-outside-population-and-self"),
    pytest.param([(10, 0, ALL, frozenset(), ACTIVE),
                  (10, 1, ALL, frozenset({30}), ACTIVE)],
                 ((ALL, frozenset({30})), {"active"}, 2, 1),
                 id="empty-excludes"),
    pytest.param([(10, 0, NONE, frozenset(), ACTIVE),
                  (10, 1, NONE, frozenset({30}), ACTIVE)],
                 ((NONE, frozenset()), {"active"}, 2, 1),
                 id="empty-includes"),
    pytest.param([(10, 0, ALL, frozenset(), ACTIVE),
                  (10, 1, NONE, frozenset(), ACTIVE)],
                 ((NONE, frozenset()), {"active"}, 2, 1),
                 id="mixed-empty"),
])
def test_hand_built_members(observations, expected):
    assert merge_differences(observations, MEMBERS) == []
    policy, sources, observed, inconsistent = \
        merged_rows(observations, MEMBERS)[10]
    assert (policy, sources, observed, inconsistent) == (
        expected[0], frozenset(expected[1]), expected[2], expected[3])


def test_population_filters_members_and_bounds_mixed_modes():
    """Rows of members outside a non-empty population are dropped; with
    no population every member merges, and mixed modes allow nobody."""
    observations = [(10, 0, ALL, frozenset(), ACTIVE),
                    (10, 1, NONE, frozenset({20}), ACTIVE),
                    (60, 0, ALL, frozenset(), PASSIVE)]
    for population in (MEMBERS, set()):
        assert merge_differences(observations, population) == []
    assert list(merged_rows(observations, MEMBERS)) == [10]
    unbounded = merged_rows(observations, set())
    assert list(unbounded) == [10, 60]
    assert unbounded[10][0] == (NONE, frozenset())

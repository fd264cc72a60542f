"""Querying-cost model and optimisation (section 4.3).

The cost of the active measurement is the number of looking-glass queries:

    c = 1 + |ARS| + sum_a |P'_a|                      (equation 1)

where P'_a is the set of prefixes of member *a* queried for communities.
Two optimisations reduce the last term: (i) sample 10% of each member's
prefixes (capped at 100) because community values are consistent across
prefixes, and (ii) prioritise prefixes announced by many members so one
``show ip bgp <prefix>`` query covers several members at once.  Members
whose communities were already obtained passively are skipped entirely:

    c = 1 + |ARS - ARS_passive| + sum_a |P'_a - P_passive_a|   (equation 2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.bgp.prefix import Prefix


@dataclass
class QueryPlan:
    """A concrete plan of ``show ip bgp <prefix>`` queries.

    ``prefix_queries`` is the ordered list of prefixes to query;
    ``covered`` maps each member to the number of its prefixes covered by
    the plan, which the planner drives up to the member's sampling target.
    """

    ixp_name: str
    prefix_queries: List[Prefix] = field(default_factory=list)
    covered: Dict[int, int] = field(default_factory=dict)
    targets: Dict[int, int] = field(default_factory=dict)
    skipped_members: Set[int] = field(default_factory=set)

    @property
    def num_prefix_queries(self) -> int:
        """Number of prefix-information queries in the plan."""
        return len(self.prefix_queries)

    def total_cost(self, num_members_queried: int) -> int:
        """Equation 1/2 cost for this plan: the summary query, one
        neighbor-routes query per (non-skipped) member, plus the prefix
        queries."""
        return 1 + num_members_queried + self.num_prefix_queries


@dataclass
class CostBreakdown:
    """Cost of the same measurement under different strategies."""

    ixp_name: str
    num_members: int
    exhaustive: int          #: query every prefix of every member
    sampled: int             #: 10% / cap-100 sampling, no sharing (eq. 1)
    optimised: int           #: sampling + multi-member prefix sharing
    with_passive: int        #: optimised + members covered passively (eq. 2)

    @property
    def exhaustive_over_optimised(self) -> float:
        """How many times more queries the naive strategy needs."""
        if self.optimised == 0:
            return float("inf")
        return self.exhaustive / self.optimised


class QueryCostModel:
    """Plan and account for active looking-glass queries at one IXP."""

    def __init__(
        self,
        ixp_name: str,
        announced_prefixes: Mapping[int, Sequence[Prefix]],
        sample_fraction: float = 0.10,
        max_prefixes_per_member: int = 100,
    ) -> None:
        if not 0 < sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        if max_prefixes_per_member < 1:
            raise ValueError("max_prefixes_per_member must be >= 1")
        self.ixp_name = ixp_name
        self.announced_prefixes: Dict[int, List[Prefix]] = {
            asn: list(prefixes) for asn, prefixes in announced_prefixes.items()}
        self.sample_fraction = sample_fraction
        self.max_prefixes_per_member = max_prefixes_per_member

    # -- targets ---------------------------------------------------------------------

    def sampling_target(self, member_asn: int) -> int:
        """|P'_a|: how many of the member's prefixes must be covered."""
        prefixes = self.announced_prefixes.get(member_asn, [])
        if not prefixes:
            return 0
        sampled = max(1, math.ceil(len(prefixes) * self.sample_fraction))
        return min(sampled, self.max_prefixes_per_member, len(prefixes))

    def prefix_multiplicity(self) -> Dict[Prefix, int]:
        """m_p: number of members announcing each prefix (figure 5)."""
        multiplicity: Dict[Prefix, int] = {}
        for prefixes in self.announced_prefixes.values():
            for prefix in set(prefixes):
                multiplicity[prefix] = multiplicity.get(prefix, 0) + 1
        return multiplicity

    # -- planning ----------------------------------------------------------------------

    def build_plan(
        self,
        skip_members: Optional[Iterable[int]] = None,
        covered_prefixes: Optional[Mapping[int, Iterable[Prefix]]] = None,
    ) -> QueryPlan:
        """Build the optimised query plan.

        ``skip_members`` are members whose communities were already
        obtained passively (equation 2); ``covered_prefixes`` lists
        prefixes per member already covered by passive data, reducing the
        member's remaining target.
        """
        skip = set(skip_members or ())
        covered_by_passive = {asn: set(prefixes)
                              for asn, prefixes in (covered_prefixes or {}).items()}
        multiplicity = self.prefix_multiplicity()

        plan = QueryPlan(ixp_name=self.ixp_name, skipped_members=skip)
        remaining: Dict[int, int] = {}
        for asn in self.announced_prefixes:
            if asn in skip:
                continue
            target = self.sampling_target(asn)
            already = len(covered_by_passive.get(asn, set())
                          & set(self.announced_prefixes[asn]))
            plan.targets[asn] = target
            plan.covered[asn] = min(already, target)
            remaining[asn] = max(0, target - already)

        # Per-member candidate ordering: most-shared prefixes first.
        candidate_order: Dict[int, List[Prefix]] = {}
        for asn in remaining:
            prefixes = sorted(set(self.announced_prefixes[asn]),
                              key=lambda p: (-multiplicity[p], p))
            candidate_order[asn] = prefixes

        queried: Set[Prefix] = set()
        # Greedy: repeatedly pick the unqueried prefix with the highest
        # multiplicity among members still below target.
        needy = {asn for asn, need in remaining.items() if need > 0}
        while needy:
            best_prefix: Optional[Prefix] = None
            best_gain = -1
            for asn in sorted(needy):
                for prefix in candidate_order[asn]:
                    if prefix in queried:
                        continue
                    gain = multiplicity[prefix]
                    if gain > best_gain:
                        best_gain = gain
                        best_prefix = prefix
                    break
            if best_prefix is None:
                break
            queried.add(best_prefix)
            plan.prefix_queries.append(best_prefix)
            for asn in list(needy):
                if best_prefix in set(self.announced_prefixes[asn]) and remaining[asn] > 0:
                    remaining[asn] -= 1
                    plan.covered[asn] = plan.covered.get(asn, 0) + 1
                    if remaining[asn] <= 0:
                        needy.discard(asn)
        return plan

    # -- cost summaries --------------------------------------------------------------------

    def cost_breakdown(
        self,
        passive_members: Optional[Iterable[int]] = None,
        passive_prefixes: Optional[Mapping[int, Iterable[Prefix]]] = None,
    ) -> CostBreakdown:
        """Compute the cost of the four strategies discussed in section 4.3."""
        members = sorted(self.announced_prefixes)
        num_members = len(members)

        exhaustive = 1 + num_members + sum(
            len(set(self.announced_prefixes[asn])) for asn in members)
        sampled = 1 + num_members + sum(
            self.sampling_target(asn) for asn in members)

        optimised_plan = self.build_plan()
        optimised = optimised_plan.total_cost(num_members)

        passive = set(passive_members or ())
        passive_plan = self.build_plan(skip_members=passive,
                                       covered_prefixes=passive_prefixes)
        with_passive = passive_plan.total_cost(num_members - len(passive & set(members)))

        return CostBreakdown(
            ixp_name=self.ixp_name,
            num_members=num_members,
            exhaustive=exhaustive,
            sampled=sampled,
            optimised=optimised,
            with_passive=with_passive,
        )

    @staticmethod
    def measurement_duration(total_queries: int,
                             seconds_per_query: float = 10.0,
                             parallel_ixps: int = 1) -> float:
        """Wall-clock seconds for *total_queries* under a rate limit,
        assuming different IXPs are measured in parallel (section 4.3
        reports < 17 hours for all IXPs at 1 query / 10 s)."""
        if parallel_ixps < 1:
            raise ValueError("parallel_ixps must be >= 1")
        return total_queries * seconds_per_query / parallel_ixps

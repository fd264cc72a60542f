"""Active inference from looking-glass queries (section 4.1).

The five steps against a route-server looking glass:

1. ``show ip bgp`` — obtain the members ARS and their IXP addresses;
2. ``show ip bgp neighbor <addr> routes`` — the prefixes P_a each member
   advertises;
3. ``show ip bgp <prefix>`` for a sampled, sharing-optimised subset of
   prefixes — the RS communities C_{a,p};
4. build N_a per member;
5. infer links from reciprocal ALLOW (done by the engine).

When an IXP has no route-server LG, the same communities can be read from
*third-party* looking glasses operated by RS members: the member's LG
shows the routes the route server exported to it, with the announcing
members' communities intact (:class:`ThirdPartyCollection`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.core.communities import RSCommunityInterpreter
from repro.core.query_cost import QueryCostModel, QueryPlan
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass


@dataclass
class ActiveCollection:
    """Everything gathered from one route-server looking glass."""

    ixp_name: str
    members: Set[int] = field(default_factory=set)
    member_ips: Dict[int, str] = field(default_factory=dict)
    announced_prefixes: Dict[int, List[Prefix]] = field(default_factory=dict)
    #: member -> list of (prefix, communities) observations
    observations: Dict[int, List[Tuple[Prefix, FrozenSet[Community]]]] = field(
        default_factory=dict)
    plan: Optional[QueryPlan] = None
    total_queries: int = 0

    def members_with_communities(self) -> Set[int]:
        """Members for which at least one community observation exists."""
        return {asn for asn, obs in self.observations.items() if obs}


class ActiveInference:
    """Drive a route-server looking glass through steps 1-3."""

    def __init__(
        self,
        lg: RouteServerLookingGlass,
        sample_fraction: float = 0.10,
        max_prefixes_per_member: int = 100,
    ) -> None:
        self.lg = lg
        self.sample_fraction = sample_fraction
        self.max_prefixes_per_member = max_prefixes_per_member

    def collect(
        self,
        skip_members: Optional[Iterable[int]] = None,
        covered_prefixes: Optional[Mapping[int, Iterable[Prefix]]] = None,
    ) -> ActiveCollection:
        """Run steps 1-3 and return the raw collection.

        ``skip_members`` / ``covered_prefixes`` implement the passive-first
        optimisation of equation 2: members (or member prefixes) already
        covered passively are not queried again.
        """
        ixp_name = self.lg.ixp_name
        collection = ActiveCollection(ixp_name=ixp_name)
        skip = set(skip_members or ())
        # Queries are accounted as the delta over this collection, so
        # repeated runs against one (shared) looking glass report the
        # same per-run cost instead of the LG's cumulative lifetime total.
        queries_before = self.lg.counter.total

        # Step 1: membership.
        for ip_address, asn in self.lg.show_ip_bgp_summary():
            collection.members.add(asn)
            collection.member_ips[asn] = ip_address

        # Step 2: per-member advertised prefixes.
        for asn in sorted(collection.members):
            if asn in skip:
                continue
            prefixes = self.lg.show_ip_bgp_neighbor_routes(collection.member_ips[asn])
            collection.announced_prefixes[asn] = list(prefixes)

        # Step 3: sampled, sharing-optimised prefix queries.
        cost_model = QueryCostModel(
            ixp_name=ixp_name,
            announced_prefixes=collection.announced_prefixes,
            sample_fraction=self.sample_fraction,
            max_prefixes_per_member=self.max_prefixes_per_member,
        )
        plan = cost_model.build_plan(skip_members=skip,
                                     covered_prefixes=covered_prefixes)
        collection.plan = plan

        for prefix in plan.prefix_queries:
            for route in self.lg.show_ip_bgp_prefix(prefix):
                member = route.learned_from if route.learned_from is not None \
                    else (route.as_path[0] if route.as_path else None)
                if member is None or member in skip:
                    continue
                collection.observations.setdefault(member, []).append(
                    (prefix, frozenset(route.communities)))

        collection.total_queries = self.lg.counter.total - queries_before
        return collection


@dataclass
class ThirdPartyCollection:
    """Communities collected from the looking glass of an RS member.

    Only the members that allow the LG's operator to receive their routes
    are visible, so the collection is inherently partial (section 4.1).
    """

    ixp_name: str
    lg_asn: int
    observations: Dict[int, List[Tuple[Prefix, FrozenSet[Community]]]] = field(
        default_factory=dict)
    total_queries: int = 0

    def members_with_communities(self) -> Set[int]:
        """Members whose communities the third-party LG exposed."""
        return {asn for asn, obs in self.observations.items() if obs}


def collect_from_third_party_lg(
    ixp_name: str,
    lg: ASLookingGlass,
    rs_members: Iterable[int],
    interpreter: RSCommunityInterpreter,
    max_prefixes_per_member: int = 20,
) -> ThirdPartyCollection:
    """Query a member-operated LG for RS communities (section 4.1, last
    paragraph; Table 2's 'active via member LG' rows).

    The LG's view is scanned for routes whose first hop is a known RS
    member and which carry communities belonging to the IXP's grammar.
    """
    collection = ThirdPartyCollection(ixp_name=ixp_name, lg_asn=lg.asn)
    member_set = set(rs_members)
    per_member_count: Dict[int, int] = {}
    queries_before = lg.counter.total
    for prefix in lg.prefixes():
        for route in lg.show_ip_bgp_prefix(prefix):
            first_hop = route.learned_from if route.learned_from is not None \
                else (route.as_path[0] if route.as_path else None)
            if first_hop is None or first_hop not in member_set:
                continue
            if first_hop == lg.asn:
                continue
            if per_member_count.get(first_hop, 0) >= max_prefixes_per_member:
                continue
            rs_communities = interpreter.rs_communities_only(
                ixp_name, route.communities)
            collection.observations.setdefault(first_hop, []).append(
                (prefix, rs_communities))
            per_member_count[first_hop] = per_member_count.get(first_hop, 0) + 1
    collection.total_queries = lg.counter.total - queries_before
    return collection

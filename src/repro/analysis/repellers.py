"""Repeller analysis (section 5.5, figure 13).

A *repeller* is an RS member blocked by other members' EXCLUDE
communities.  The paper finds 570 of 1,363 members blocked at least once,
that global networks are the most-blocked (more potential blockers), that
77% of EXCLUDEs target an AS inside the blocker's customer cone or a
content hypergiant reached over private peering, and that Google's AS is
the single most blocked network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bgp.policy import MODE_ALL_EXCEPT
from repro.registries.peeringdb import PeeringDB


@dataclass
class RepellerReport:
    """Blocking statistics across all route servers."""

    #: blocked ASN -> number of (blocker, IXP) pairs excluding it
    blocking_frequency: Dict[int, int] = field(default_factory=dict)
    #: blocked ASN -> set of distinct blockers
    blockers: Dict[int, Set[int]] = field(default_factory=dict)
    #: total number of EXCLUDE applications observed
    total_exclusions: int = 0
    #: exclusions where the blocked AS is in the blocker's customer cone
    customer_cone_exclusions: int = 0
    #: exclusions where the blocker is a provider of the blocked AS
    provider_blocks_customer: int = 0

    @property
    def num_repellers(self) -> int:
        """Number of ASes blocked at least once."""
        return len(self.blocking_frequency)

    def top_repellers(self, count: int = 10) -> List[Tuple[int, int]]:
        """The most-blocked ASes as (asn, times blocked)."""
        ranked = sorted(self.blocking_frequency.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:count]

    def fraction_customer_cone(self) -> float:
        """Fraction of EXCLUDEs targeting an AS in the blocker's cone (77%)."""
        if not self.total_exclusions:
            return 0.0
        return self.customer_cone_exclusions / self.total_exclusions

    def fraction_provider_blocks_customer(self) -> float:
        """Fraction of EXCLUDEs set by a provider against a direct customer
        co-located at the same route server (12%)."""
        if not self.total_exclusions:
            return 0.0
        return self.provider_blocks_customer / self.total_exclusions

    def by_geographic_scope(self, peeringdb: PeeringDB) -> Dict[str, List[int]]:
        """Figure 13: blocking frequencies grouped by the repeller's scope."""
        result: Dict[str, List[int]] = {}
        for asn, frequency in self.blocking_frequency.items():
            scope = peeringdb.scope_of(asn)
            result.setdefault(scope.value, []).append(frequency)
        for values in result.values():
            values.sort(reverse=True)
        return result


class RepellerAnalysis:
    """Derive repeller statistics from the reconstructed export policies."""

    def __init__(
        self,
        customer_cone: Optional[Callable[[int], Set[int]]] = None,
        direct_customers: Optional[Callable[[int], Set[int]]] = None,
    ) -> None:
        self.customer_cone = customer_cone
        self.direct_customers = direct_customers

    def analyse_matrix(
        self,
        matrix,
        rs_members_by_ixp: Optional[Mapping[str, Iterable[int]]] = None,
    ) -> RepellerReport:
        """Count EXCLUDE applications across every route server of a
        :class:`~repro.runtime.reachmatrix.ReachabilityMatrix`.

        Each plane carries the exact merged ``(mode, listed)`` policy
        per covered member; an ``all-except`` row blocks every listed
        AS in the population.  The population is *rs_members_by_ixp*'s
        list per IXP when given, else the plane's member universe —
        which can be a superset of a ground-truth RS-member list when
        the looking-glass summary surfaced additional members.
        """
        report = RepellerReport()
        for ixp_name in sorted(matrix.planes):
            plane = matrix.planes[ixp_name]
            if rs_members_by_ixp is not None:
                members = set(rs_members_by_ixp.get(ixp_name, ()))
            else:
                members = set(plane.index.universe)
            universe = plane.index.universe
            for bit, (mode, listed) in plane.policies.items():
                if mode != MODE_ALL_EXCEPT:
                    continue
                blocker = universe[bit]
                for blocked in set(listed) & members:
                    report.total_exclusions += 1
                    report.blocking_frequency[blocked] = \
                        report.blocking_frequency.get(blocked, 0) + 1
                    report.blockers.setdefault(blocked, set()).add(blocker)
                    if self.customer_cone is not None and \
                            blocked in self.customer_cone(blocker):
                        report.customer_cone_exclusions += 1
                    if self.direct_customers is not None and \
                            blocked in self.direct_customers(blocker):
                        report.provider_blocks_customer += 1
        return report

"""Prefix announcement multiplicity (figure 5).

Figure 5 plots the CCDF of the number of RS members advertising a given
prefix to the DE-CIX route server; 48.4% of prefixes were announced by
more than one member, which is what makes the shared-prefix query
optimisation of section 4.3 effective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bgp.prefix import Prefix
from repro.ixp.route_server import RouteServer


@dataclass
class PrefixStats:
    """Multiplicity distribution of prefixes at one route server."""

    ixp_name: str
    #: prefix -> number of members announcing it
    multiplicity: Dict[Prefix, int] = field(default_factory=dict)

    def fraction_multi_member(self) -> float:
        """Fraction of prefixes announced by more than one member."""
        if not self.multiplicity:
            return 0.0
        multi = sum(1 for count in self.multiplicity.values() if count > 1)
        return multi / len(self.multiplicity)

    def ccdf(self, max_members: int = 10) -> List[Tuple[int, float]]:
        """CCDF points: (k, fraction of prefixes announced by > k members)."""
        if not self.multiplicity:
            return [(k, 0.0) for k in range(max_members + 1)]
        total = len(self.multiplicity)
        points = []
        for k in range(max_members + 1):
            above = sum(1 for count in self.multiplicity.values() if count > k)
            points.append((k, above / total))
        return points


def prefix_stats_for_route_server(route_server: RouteServer) -> PrefixStats:
    """Compute the multiplicity distribution of a route server's RIB."""
    stats = PrefixStats(ixp_name=route_server.ixp_name)
    for prefix in route_server.prefixes():
        stats.multiplicity[prefix] = len(route_server.members_announcing(prefix))
    return stats

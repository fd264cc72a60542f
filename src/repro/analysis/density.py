"""Peering density per route server (figure 12).

Peering density is the fraction of possible route-server peerings a
member actually established.  The paper measures 0.79-0.95 at the IXPs
with full connectivity data, higher than the ~70% overall IXP peering
density reported by earlier work, because route-server environments
select for open peering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Link = Tuple[int, int]


@dataclass
class DensityReport:
    """Per-IXP density distributions."""

    #: ixp name -> list of per-member densities
    per_member: Dict[str, List[float]] = field(default_factory=dict)

    def mean_density(self, ixp_name: str) -> float:
        """Mean per-member density at *ixp_name* (the red crosses of fig. 12)."""
        values = self.per_member.get(ixp_name, [])
        return sum(values) / len(values) if values else 0.0

    def mean_densities(self) -> Dict[str, float]:
        """Mean density per IXP."""
        return {name: self.mean_density(name) for name in self.per_member}

    def overall_link_density(self, ixp_name: str, num_members: int,
                             num_links: int) -> float:
        """Exchange-level density: links over possible pairs."""
        possible = num_members * (num_members - 1) // 2
        return num_links / possible if possible else 0.0


def member_densities(links: Iterable[Link], members: Sequence[int]) -> Dict[int, float]:
    """Per-member density: established RS peers over possible RS peers."""
    member_set = set(members)
    possible = len(member_set) - 1
    degree: Dict[int, int] = {asn: 0 for asn in member_set}
    for a, b in links:
        if a in member_set and b in member_set:
            degree[a] += 1
            degree[b] += 1
    if possible <= 0:
        return {asn: 0.0 for asn in member_set}
    return {asn: degree[asn] / possible for asn in member_set}


def density_per_ixp(
    links_by_ixp: Mapping[str, Iterable[Link]],
    members_by_ixp: Mapping[str, Sequence[int]],
    only_members_with_links: bool = False,
) -> DensityReport:
    """Figure 12: per-IXP distribution of per-member peering densities.

    ``only_members_with_links`` restricts the population to members with
    at least one inferred link, matching the paper's plot which only shows
    members whose connectivity data was complete.
    """
    report = DensityReport()
    for ixp_name, members in members_by_ixp.items():
        links = set(links_by_ixp.get(ixp_name, ()))
        densities = member_densities(links, list(members))
        values = []
        for asn, density in sorted(densities.items()):
            if only_members_with_links and density == 0.0:
                continue
            values.append(density)
        report.per_member[ixp_name] = values
    return report

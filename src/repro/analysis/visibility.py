"""Visibility of the inferred MLP links in existing data sources (figure 6).

The paper's headline numbers: 206K MLP links inferred, only 11.9% of
which are visible in public BGP paths (Route Views / RIPE RIS), i.e. 88%
were previously invisible; the overlap with traceroute-derived topologies
(Ark / DIMES) is even smaller because those projects do not resolve
route-server-mediated links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

Link = Tuple[int, int]


@dataclass
class VisibilityReport:
    """Overlap of the MLP link set with other topology data sources."""

    mlp_links: Set[Link] = field(default_factory=set)
    bgp_links: Set[Link] = field(default_factory=set)
    traceroute_links: Set[Link] = field(default_factory=set)

    # -- headline numbers -------------------------------------------------------------

    @property
    def num_mlp(self) -> int:
        """Number of inferred MLP links."""
        return len(self.mlp_links)

    @property
    def mlp_visible_in_bgp(self) -> Set[Link]:
        """MLP links also present in public BGP paths."""
        return self.mlp_links & self.bgp_links

    @property
    def mlp_visible_in_traceroute(self) -> Set[Link]:
        """MLP links also present in traceroute-derived links."""
        return self.mlp_links & self.traceroute_links

    @property
    def fraction_visible_in_bgp(self) -> float:
        """Fraction of MLP links visible in public BGP data (11.9% in the paper)."""
        if not self.mlp_links:
            return 0.0
        return len(self.mlp_visible_in_bgp) / len(self.mlp_links)

    @property
    def fraction_invisible(self) -> float:
        """Fraction of MLP links invisible in public BGP data (88% in the paper)."""
        return 1.0 - self.fraction_visible_in_bgp

    def summary(self) -> Dict[str, float]:
        """Headline summary dictionary."""
        return {
            "mlp_links": float(self.num_mlp),
            "bgp_links": float(len(self.bgp_links)),
            "traceroute_links": float(len(self.traceroute_links)),
            "visible_in_bgp": float(len(self.mlp_visible_in_bgp)),
            "fraction_visible_in_bgp": self.fraction_visible_in_bgp,
            "fraction_invisible": self.fraction_invisible,
            "visible_in_traceroute": float(len(self.mlp_visible_in_traceroute)),
        }


class VisibilityAnalysis:
    """Build visibility reports and the per-member series of figure 6."""

    def __init__(
        self,
        mlp_links: Iterable[Link],
        bgp_links: Iterable[Link],
        traceroute_links: Iterable[Link] = (),
    ) -> None:
        self.report = VisibilityReport(
            mlp_links={self._norm(link) for link in mlp_links},
            bgp_links={self._norm(link) for link in bgp_links},
            traceroute_links={self._norm(link) for link in traceroute_links},
        )

    @staticmethod
    def _norm(link: Link) -> Link:
        return (min(link), max(link))

    def per_member_series(
        self, members: Optional[Iterable[int]] = None
    ) -> List[Dict[str, int]]:
        """Figure 6: per RS member, the number of its peerings found by MLP
        inference, visible in passive BGP data and in traceroute data,
        ordered by decreasing MLP peer count."""
        def count_per_as(links: Set[Link]) -> Dict[int, int]:
            counts: Dict[int, int] = {}
            for a, b in links:
                counts[a] = counts.get(a, 0) + 1
                counts[b] = counts.get(b, 0) + 1
            return counts

        mlp_counts = count_per_as(self.report.mlp_links)
        bgp_counts = count_per_as(self.report.bgp_links)
        traceroute_counts = count_per_as(self.report.traceroute_links)
        population = set(members) if members is not None else set(mlp_counts)
        series = [
            {
                "asn": asn,
                "mlp": mlp_counts.get(asn, 0),
                "passive": bgp_counts.get(asn, 0),
                "active": traceroute_counts.get(asn, 0),
            }
            for asn in population
        ]
        series.sort(key=lambda row: (-row["mlp"], row["asn"]))
        return series

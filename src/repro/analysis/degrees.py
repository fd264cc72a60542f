"""Customer-degree distributions of the inferred links (figure 7).

For every inferred p2p link the analysis looks at the customer degrees of
the two endpoints and reports, per link, the smaller and the larger of
the two.  The paper's findings: 12.4% of links are between two stubs,
55.6% involve at least one stub, and 58.1% involve an AS with at most 10
customers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

Link = Tuple[int, int]


@dataclass
class LinkDegreeStats:
    """Aggregate degree statistics over a set of links."""

    smallest_degrees: List[int] = field(default_factory=list)
    largest_degrees: List[int] = field(default_factory=list)

    @property
    def num_links(self) -> int:
        """Number of links analysed."""
        return len(self.smallest_degrees)

    def fraction_stub_stub(self) -> float:
        """Fraction of links between two stub ASes (both degrees zero)."""
        if not self.num_links:
            return 0.0
        count = sum(1 for degree in self.largest_degrees if degree == 0)
        return count / self.num_links

    def fraction_with_stub(self) -> float:
        """Fraction of links involving at least one stub AS."""
        if not self.num_links:
            return 0.0
        count = sum(1 for degree in self.smallest_degrees if degree == 0)
        return count / self.num_links

    def fraction_small_degree(self, threshold: int = 10) -> float:
        """Fraction of links involving an AS with at most *threshold* customers."""
        if not self.num_links:
            return 0.0
        count = sum(1 for degree in self.smallest_degrees if degree <= threshold)
        return count / self.num_links

    def cdf(self, which: str = "smallest",
            points: Sequence[int] = (0, 1, 2, 5, 10, 20, 50, 100, 500, 1000)
            ) -> List[Tuple[int, float]]:
        """CDF of the chosen degree series at the given evaluation points."""
        series = self.smallest_degrees if which == "smallest" else self.largest_degrees
        if not series:
            return [(point, 0.0) for point in points]
        total = len(series)
        return [(point, sum(1 for d in series if d <= point) / total)
                for point in points]

    def summary(self) -> Dict[str, float]:
        """The three headline fractions of figure 7."""
        return {
            "links": float(self.num_links),
            "stub_stub": self.fraction_stub_stub(),
            "involves_stub": self.fraction_with_stub(),
            "small_degree": self.fraction_small_degree(10),
        }


class DegreeAnalysis:
    """Compute figure 7 from a link set and a customer-degree function."""

    def __init__(self, customer_degree: Callable[[int], int]) -> None:
        self.customer_degree = customer_degree

    @classmethod
    def from_mapping(cls, degrees: Mapping[int, int]) -> "DegreeAnalysis":
        """Build from a plain ASN -> degree mapping (unknown ASes get 0)."""
        return cls(lambda asn: degrees.get(asn, 0))

    def analyse(self, links: Iterable[Link]) -> LinkDegreeStats:
        """Compute per-link smallest/largest customer degrees."""
        stats = LinkDegreeStats()
        for a, b in links:
            degree_a = self.customer_degree(a)
            degree_b = self.customer_degree(b)
            stats.smallest_degrees.append(min(degree_a, degree_b))
            stats.largest_degrees.append(max(degree_a, degree_b))
        return stats

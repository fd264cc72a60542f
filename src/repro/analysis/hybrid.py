"""Hybrid relationship detection (section 5.6).

1,230 of the RS links visible in passive BGP data are inferred as
provider-customer by the CAIDA relationship algorithm; the paper
cross-checks relationship-tagging communities to conclude that many are
genuine location-specific hybrid p2p/p2c relationships.  This module
finds the candidate pairs (an inferred MLP link whose endpoints also have
a c2p relationship) and classifies them with whatever relationship
evidence is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bgp.policy import Relationship

Link = Tuple[int, int]


@dataclass
class HybridCandidate:
    """An inferred MLP link whose endpoints also have a transit relationship."""

    link: Link
    customer: int
    provider: int
    ixps: Tuple[str, ...] = ()
    confirmed_hybrid: bool = False


@dataclass
class HybridReport:
    """Outcome of the hybrid-relationship analysis."""

    candidates: List[HybridCandidate] = field(default_factory=list)

    @property
    def num_candidates(self) -> int:
        """Number of MLP links that overlap a c2p relationship."""
        return len(self.candidates)

    @property
    def confirmed(self) -> List[HybridCandidate]:
        """Candidates confirmed as location-specific hybrid relationships."""
        return [c for c in self.candidates if c.confirmed_hybrid]

    @property
    def num_confirmed(self) -> int:
        """Number of confirmed hybrid relationships."""
        return len(self.confirmed)

    def summary(self) -> Dict[str, int]:
        """Compact summary for reports."""
        return {
            "candidates": self.num_candidates,
            "confirmed": self.num_confirmed,
        }


class HybridRelationshipAnalysis:
    """Find MLP links that coexist with provider-customer relationships."""

    def __init__(
        self,
        relationship: Callable[[int, int], Optional[Relationship]],
        hybrid_evidence: Optional[Callable[[Link], bool]] = None,
    ) -> None:
        #: relationship(local, remote) -> how *local* sees *remote*.
        self.relationship = relationship
        #: Optional oracle standing in for relationship-tagging communities.
        self.hybrid_evidence = hybrid_evidence

    def analyse(
        self,
        mlp_links: Iterable[Link],
        link_ixps: Optional[Mapping[Link, Iterable[str]]] = None,
    ) -> HybridReport:
        """Classify every MLP link that overlaps a c2p relationship."""
        link_ixps = dict(link_ixps or {})
        report = HybridReport()
        for link in sorted({(min(l), max(l)) for l in mlp_links}):
            a, b = link
            rel_ab = self.relationship(a, b)
            if rel_ab is Relationship.CUSTOMER:
                customer, provider = b, a
            elif rel_ab is Relationship.PROVIDER:
                customer, provider = a, b
            else:
                continue
            candidate = HybridCandidate(
                link=link,
                customer=customer,
                provider=provider,
                ixps=tuple(sorted(link_ixps.get(link, ()))),
            )
            if self.hybrid_evidence is not None:
                candidate.confirmed_hybrid = bool(self.hybrid_evidence(link))
            report.candidates.append(candidate)
        return report

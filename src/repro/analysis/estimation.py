"""Global IXP peering estimation (section 5.7).

Given per-IXP member counts, pricing models and route-server
availability, the paper estimates the number of IXP peerings using
peering-density assumptions: 70% for flat-fee IXPs with route servers,
60% for usage-based IXPs with route servers, 50% for IXPs without route
servers, and 40% for (for-profit) North American IXPs.  The unique-link
estimate discounts the maximal possible overlap between IXPs that share
members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass
class IXPEstimate:
    """Inputs and outcome of the estimation for a single IXP."""

    name: str
    members: int
    region: str = "europe"                 #: "europe", "north-america", ...
    pricing: str = "flat"                  #: "flat" or "usage"
    has_route_server: bool = True
    #: Member ASNs when known (enables exact overlap accounting).
    member_asns: Optional[Set[int]] = None
    density: float = 0.0
    estimated_links: int = 0

    def possible_links(self) -> int:
        """Full-mesh link count for the IXP."""
        return self.members * (self.members - 1) // 2


@dataclass
class EstimationReport:
    """Aggregate estimation across all IXPs."""

    estimates: List[IXPEstimate] = field(default_factory=list)
    total_ixp_peerings: int = 0
    unique_peerings: int = 0

    def by_region(self) -> Dict[str, int]:
        """Estimated peerings per region."""
        result: Dict[str, int] = {}
        for estimate in self.estimates:
            result[estimate.region] = result.get(estimate.region, 0) \
                + estimate.estimated_links
        return result


def measured_densities(matrix) -> Dict[str, Dict[str, float]]:
    """Per-IXP measured peering densities from the shared
    :class:`~repro.runtime.reachmatrix.ReachabilityMatrix` artifact.

    The estimator of section 5.7 *assumes* densities (70% flat-fee RS,
    60% usage-based, ...); this view computes what the inference
    actually measured — the exchange-level link density over the
    member universe and the mean per-member density among members with
    at least one inferred link — so the assumption can be sanity
    checked against the reconstruction (the paper reports 0.79-0.95 at
    the IXPs with full connectivity data).
    """
    from repro.analysis.density import member_densities

    result: Dict[str, Dict[str, float]] = {}
    for ixp_name in sorted(matrix.planes):
        plane = matrix.planes[ixp_name]
        num_members = plane.num_members
        possible = num_members * (num_members - 1) // 2
        links = matrix.links_of(ixp_name)
        densities = [density for density in member_densities(
            links, plane.index.universe).values() if density > 0.0]
        result[ixp_name] = {
            "members": float(num_members),
            "links": float(len(links)),
            "link_density": (len(links) / possible) if possible else 0.0,
            "mean_member_density": (sum(densities) / len(densities)
                                    if densities else 0.0),
        }
    return result


class GlobalEstimator:
    """Apply the density assumptions of section 5.7."""

    def __init__(
        self,
        density_flat_with_rs: float = 0.70,
        density_usage_with_rs: float = 0.60,
        density_without_rs: float = 0.50,
        density_north_america: float = 0.40,
        density_cap: Optional[float] = None,
    ) -> None:
        self.density_flat_with_rs = density_flat_with_rs
        self.density_usage_with_rs = density_usage_with_rs
        self.density_without_rs = density_without_rs
        self.density_north_america = density_north_america
        #: Optional conservative cap (the paper's 60%-everywhere variant).
        self.density_cap = density_cap

    # -- densities -----------------------------------------------------------------------

    def density_for(self, estimate: IXPEstimate) -> float:
        """Peering density assumed for *estimate*."""
        if estimate.region == "north-america":
            density = self.density_north_america
        elif not estimate.has_route_server:
            density = self.density_without_rs
        elif estimate.pricing == "usage":
            density = self.density_usage_with_rs
        else:
            density = self.density_flat_with_rs
        if self.density_cap is not None:
            density = min(density, self.density_cap)
        return density

    # -- estimation ----------------------------------------------------------------------

    def estimate(self, ixps: Iterable[IXPEstimate]) -> EstimationReport:
        """Estimate global and unique IXP peering counts."""
        report = EstimationReport()
        for estimate in ixps:
            estimate.density = self.density_for(estimate)
            estimate.estimated_links = int(round(
                estimate.possible_links() * estimate.density))
            report.estimates.append(estimate)
        report.total_ixp_peerings = sum(e.estimated_links for e in report.estimates)
        report.unique_peerings = self._unique_links(report.estimates)
        return report

    def _unique_links(self, estimates: Sequence[IXPEstimate]) -> int:
        """Discount the maximal possible overlap between co-located members.

        When member ASNs are known the overlap is computed exactly as the
        densest-IXP coverage of each shared pair; otherwise a pairwise
        upper bound on overlap is subtracted (the paper's 'highest possible
        link overlap' assumption).
        """
        if all(e.member_asns for e in estimates):
            covered: Dict[Tuple[int, int], float] = {}
            for estimate in estimates:
                members = sorted(estimate.member_asns or ())
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        pair = (a, b)
                        covered[pair] = max(covered.get(pair, 0.0), estimate.density)
            return int(round(sum(covered.values())))

        total = sum(e.estimated_links for e in estimates)
        overlap = 0
        ordered = sorted(estimates, key=lambda e: -e.members)
        for i, first in enumerate(ordered):
            for second in ordered[i + 1:]:
                shared_members = min(first.members, second.members) // 2
                shared_possible = shared_members * (shared_members - 1) // 2
                overlap += int(shared_possible *
                               min(first.density, second.density) * 0.5)
        # The pairwise bound over-counts when many IXPs share members; the
        # paper's own estimate keeps roughly three quarters of the links, so
        # cap the discount at 40% of the total.
        overlap = min(overlap, int(total * 0.4))
        return max(0, total - overlap)

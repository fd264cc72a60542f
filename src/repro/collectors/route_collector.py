"""Route collectors: the Route Views / RIPE RIS equivalents."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.collectors.vantage_point import VantagePoint


@dataclass
class RouteCollector:
    """A passive BGP collector with a set of vantage-point feeds."""

    name: str
    vantage_points: List[VantagePoint] = field(default_factory=list)

    def add_vantage_point(self, vantage_point: VantagePoint) -> VantagePoint:
        """Attach a vantage point feed to this collector."""
        vantage_point.collector = self.name
        self.vantage_points.append(vantage_point)
        return vantage_point

    def peer_asns(self) -> List[int]:
        """ASNs of all vantage points feeding the collector."""
        return sorted(vp.asn for vp in self.vantage_points)

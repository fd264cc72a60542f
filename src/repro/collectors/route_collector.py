"""Route collectors: the Route Views / RIPE RIS equivalents."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bgp.propagation import PropagationResult
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

    def export_rows(self, propagation: PropagationResult, table):
        """The collector's RIB dump: every vantage point's feed as
        parallel ``(peers, prefix_ids, path_ids, bag_ids)`` columns
        interned into *table*, in dump order (see
        :meth:`VantagePoint.export_rows`)."""
        peers: List[int] = []
        prefix_ids: List[int] = []
        path_ids: List[int] = []
        bag_ids: List[int] = []
        for vantage_point in self.vantage_points:
            rows = vantage_point.export_rows(propagation, table)
            peers.extend(rows[0])
            prefix_ids.extend(rows[1])
            path_ids.extend(rows[2])
            bag_ids.extend(rows[3])
        return peers, prefix_ids, path_ids, bag_ids

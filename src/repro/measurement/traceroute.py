"""Traceroute-derived AS links (Ark / DIMES stand-in).

A traceroute campaign launches probes from a set of monitor ASes towards
every origin and converts the observed forwarding path into AS links.
Faithfully to what the paper reports, links crossing an IXP route server
are *not* resolved as member-to-member adjacencies; depending on how the
IXP fabric responds they appear either as a member<->RS-ASN adjacency or
as a (useless) member<->member hop hidden behind the exchange's layer-2
fabric and therefore dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.propagation import PropagationResult
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import LinkType


@dataclass
class TracerouteConfig:
    """Parameters of a synthetic traceroute campaign."""

    #: ASes hosting traceroute monitors.
    monitor_asns: Sequence[int] = field(default_factory=list)


class TracerouteCampaign:
    """Synthesise Ark/DIMES-style AS links from forwarding paths."""

    def __init__(self, graph: ASGraph, config: TracerouteConfig,
                 rs_asn_by_ixp: Optional[Dict[str, int]] = None) -> None:
        self.graph = graph
        self.config = config
        self.rs_asn_by_ixp = dict(rs_asn_by_ixp or {})

    def derive_links(self, propagation: PropagationResult) -> Set[Tuple[int, int]]:
        """AS links derived from the monitors' forwarding paths.

        The forwarding path from a monitor to an origin follows the
        monitor's best BGP route (control plane == data plane in this
        model).  Each adjacent AS pair becomes a link, except pairs whose
        underlying adjacency is a route-server peering: those appear as
        member<->RS adjacencies (the Ark/DIMES artefact).  The distinct
        pairs come from the result's path columns
        (:meth:`PropagationResult.visible_links`); each is resolved once.
        """
        links: Set[Tuple[int, int]] = set()
        for left, right in propagation.visible_links(
                self.config.monitor_asns):
            links.update(self._resolve_hop(left, right))
        return links

    def _resolve_hop(self, left: int, right: int) -> List[Tuple[int, int]]:
        link = self.graph.get_link(left, right)
        if link is None or link.link_type is not LinkType.RS_P2P:
            return [(min(left, right), max(left, right))]
        rs_asn = self.rs_asn_by_ixp.get(link.ixp or "")
        if rs_asn is None:
            # Unknown exchange: the hop disappears behind the layer-2 fabric.
            return []
        return [
            (min(left, rs_asn), max(left, rs_asn)),
            (min(right, rs_asn), max(right, rs_asn)),
        ]

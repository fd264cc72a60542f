"""Connectivity discovery: which ASes are connected to a route server.

Section 4 lists three sources, in decreasing reliability:

1. looking glasses in front of the route server (``show ip bgp`` summary);
2. RPSL as-sets registered in the IRR by the IXP operator;
3. the member list published on the IXP website.

For IXPs that expose none of these (LINX in Table 2), a partial list is
recovered by searching members' aut-num records for references to the
route-server ASN.  :class:`ConnectivityDiscovery` merges whatever sources
are available and records which one supplied each member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.ixp.ixp import IXP
from repro.ixp.looking_glass import RouteServerLookingGlass
from repro.registries.irr import IRRDatabase


@dataclass
class ConnectivityReport:
    """Discovered route-server membership of one IXP."""

    ixp_name: str
    members: Set[int] = field(default_factory=set)
    #: member ASN -> source that first reported it ("lg", "as-set",
    #: "website", "irr-search").
    sources: Dict[int, str] = field(default_factory=dict)
    complete: bool = True

    def add_all(self, asns: Iterable[int], source: str) -> None:
        """Record every ASN of *asns* not reported yet as an RS member
        discovered through *source*, in order (an earlier source wins)."""
        fresh = [asn for asn in asns if asn not in self.members]
        self.members.update(fresh)
        self.sources.update(dict.fromkeys(fresh, source))

    def members_from(self, source: str) -> Set[int]:
        """Members first discovered through *source*."""
        return {asn for asn, src in self.sources.items() if src == source}

    def __len__(self) -> int:
        return len(self.members)


class ConnectivityDiscovery:
    """Merge the available connectivity sources for each IXP."""

    def __init__(
        self,
        irr: Optional[IRRDatabase] = None,
        as_set_names: Optional[Dict[str, str]] = None,
    ) -> None:
        self.irr = irr
        #: IXP name -> as-set object name holding its RS members.
        self.as_set_names = dict(as_set_names or {})

    def discover(
        self,
        ixp: IXP,
        rs_lg: Optional[RouteServerLookingGlass] = None,
        rs_asn: Optional[int] = None,
    ) -> ConnectivityReport:
        """Discover the RS membership of *ixp* from every available source.

        The looking glass, when present, is authoritative; registry and
        website data extend (but never override) it.  When only the IRR
        aut-num search is available the report is marked incomplete.
        """
        report = ConnectivityReport(ixp_name=ixp.name)

        if rs_lg is not None:
            report.add_all((asn for _, asn in rs_lg.show_ip_bgp_summary()),
                           "lg")

        if self.irr is not None:
            as_set_name = self.as_set_names.get(ixp.name)
            if as_set_name:
                as_set = self.irr.as_set(as_set_name)
                if as_set is not None:
                    report.add_all(sorted(as_set.members), "as-set")

        website_members = ixp.member_list()
        if website_members and ixp.has_route_server():
            # The website lists IXP members; only those connected to the RS
            # belong in the report, which the website itself cannot tell us.
            # Without an LG or as-set we conservatively take the website
            # members that the other sources did not already contradict.
            rs_members = set(ixp.rs_members())
            report.add_all([asn for asn in website_members
                            if asn in rs_members], "website")

        if not report.members and self.irr is not None and rs_asn is not None:
            # LINX-style fallback: search aut-num records referencing the
            # route-server ASN.  Partial by construction.
            report.add_all([asn for asn in self.irr.ases_referencing(rs_asn)
                            if asn != rs_asn], "irr-search")
            report.complete = False

        if not report.members:
            report.complete = False
        return report

    def discover_all(
        self,
        ixps: Iterable[IXP],
        rs_lgs: Optional[Dict[str, RouteServerLookingGlass]] = None,
        rs_asns: Optional[Dict[str, int]] = None,
    ) -> Dict[str, ConnectivityReport]:
        """Run :meth:`discover` for every IXP and index reports by name."""
        rs_lgs = rs_lgs or {}
        rs_asns = rs_asns or {}
        return {
            ixp.name: self.discover(ixp, rs_lgs.get(ixp.name), rs_asns.get(ixp.name))
            for ixp in ixps
        }

"""The IXP object: members, route servers, peering LAN and pricing.

An :class:`IXP` bundles everything the measurement and analysis layers
need to know about one exchange: the full member list (route-server
members are a subset), the route server(s), the peering-LAN addressing
used by looking-glass commands, the pricing model used by the global
estimation of section 5.7, and whether the IXP publishes its member list
(LINX famously does not, forcing the IRR search fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.bgp.prefix import Prefix
from repro.bgp.session import bilateral_session_count, multilateral_session_count
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer


@dataclass
class IXP:
    """A single Internet eXchange Point."""

    name: str
    region: str = "eu-west"
    pricing: str = "flat"                      #: "flat" or "usage"
    peering_lan: Prefix = field(default_factory=lambda: Prefix.parse("185.1.0.0/22"))
    publishes_member_list: bool = True
    route_servers: List[RouteServer] = field(default_factory=list)
    #: All ASes present at the exchange (route-server members are a subset).
    members: Set[int] = field(default_factory=set)
    _member_ips: Dict[int, str] = field(default_factory=dict)

    # -- membership -----------------------------------------------------------------

    def add_member(self, asn: int) -> str:
        """Register an AS at the exchange and assign it a peering-LAN IP."""
        self.members.add(asn)
        if asn not in self._member_ips:
            index = len(self._member_ips) + 2
            base = self.peering_lan.network
            self._member_ips[asn] = _format_ip(base + index)
        return self._member_ips[asn]

    def member_ip(self, asn: int) -> str:
        """Peering-LAN IP of *asn* (KeyError if not a member)."""
        return self._member_ips[asn]

    def member_list(self) -> List[int]:
        """The member list as published on the IXP website (empty when the
        IXP does not publish one, as with LINX)."""
        if not self.publishes_member_list:
            return []
        return sorted(self.members)

    # -- route servers -------------------------------------------------------------------

    def add_route_server(self, route_server: RouteServer) -> RouteServer:
        """Attach a route server to this IXP."""
        self.route_servers.append(route_server)
        return route_server

    def has_route_server(self) -> bool:
        """True if at least one route server is configured."""
        return bool(self.route_servers)

    def rs_members(self) -> List[int]:
        """Members connected to any of the IXP's route servers."""
        asns: Set[int] = set()
        for rs in self.route_servers:
            asns.update(rs.member_set())
        return sorted(asns)

    def num_rs_members(self) -> int:
        """Number of distinct route-server members, without sorting."""
        if len(self.route_servers) == 1:
            return self.route_servers[0].num_members()
        asns: Set[int] = set()
        for rs in self.route_servers:
            asns.update(rs.member_set())
        return len(asns)

    def connect_to_route_server(
        self,
        asn: int,
        policy: Optional[MemberExportPolicy] = None,
    ) -> MemberExportPolicy:
        """Connect a member to every route server of the IXP with *policy*."""
        if asn not in self.members:
            self.add_member(asn)
        if not self.route_servers:
            raise ValueError(f"{self.name} has no route server to connect to")
        result: Optional[MemberExportPolicy] = None
        for rs in self.route_servers:
            result = rs.add_member(asn, policy, ip_address=self.member_ip(asn))
        assert result is not None
        return result

    # -- derived metrics --------------------------------------------------------------------

    def session_counts(self) -> Dict[str, int]:
        """Sessions needed for a full mesh bilaterally vs multilaterally
        (figure 1), computed over the route-server member population."""
        members = self.num_rs_members()
        servers = max(1, len(self.route_servers))
        return {
            "members": members,
            "bilateral_sessions": bilateral_session_count(members),
            "multilateral_sessions": multilateral_session_count(members, servers),
        }


def _format_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

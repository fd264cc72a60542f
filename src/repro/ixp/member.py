"""Route-server member configuration.

A :class:`MemberExportPolicy` is the member-side ground truth: which other
members should receive the member's routes via the route server, and how
that intent is encoded into RS communities.  The paper observed that the
community values applied by a member are remarkably consistent across its
prefixes (fewer than 0.5% of members differed, and only on <2% of their
prefixes), so one policy covers all of a member's prefixes; the residual
inconsistency is modelled by announcements that carry explicit
communities (:meth:`~repro.ixp.route_server.RouteServer.announce`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from repro.bgp.asn import Private16BitMapper
from repro.bgp.communities import Community
from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.ixp.community_schemes import CommunityScheme


@dataclass
class MemberExportPolicy:
    """Export policy of one member towards one route server.

    ``mode`` is ``"all-except"`` (announce to all members except
    ``listed``) or ``"none-except"`` (announce only to ``listed``).
    ``listed`` holds real member ASNs; 32-bit ASNs are translated to their
    private 16-bit aliases at community-encoding time.
    """

    member_asn: int
    ixp_name: str
    mode: str = MODE_ALL_EXCEPT
    listed: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ALL_EXCEPT, MODE_NONE_EXCEPT):
            raise ValueError(f"unknown export mode {self.mode!r}")
        self.listed = frozenset(self.listed)

    # -- semantics ---------------------------------------------------------------

    def allows(self, peer_asn: int) -> bool:
        """True if routes should reach *peer_asn*."""
        if self.mode == MODE_ALL_EXCEPT:
            return peer_asn not in self.listed
        return peer_asn in self.listed

    # -- encoding ----------------------------------------------------------------

    def communities_for(
        self,
        scheme: CommunityScheme,
        mapper: Optional[Private16BitMapper] = None,
    ) -> FrozenSet[Community]:
        """The RS communities the member attaches to its announcements."""
        return scheme.encode_policy(self.mode, sorted(self.listed), mapper)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def announce_to_all(cls, member_asn: int, ixp_name: str) -> "MemberExportPolicy":
        """The default behaviour: every member receives the routes."""
        return cls(member_asn=member_asn, ixp_name=ixp_name,
                   mode=MODE_ALL_EXCEPT, listed=frozenset())

    @classmethod
    def all_except(cls, member_asn: int, ixp_name: str,
                   excluded: Iterable[int]) -> "MemberExportPolicy":
        """ALL + EXCLUDE policy."""
        return cls(member_asn=member_asn, ixp_name=ixp_name,
                   mode=MODE_ALL_EXCEPT, listed=frozenset(excluded))

"""Route-server member configuration.

A :class:`MemberExportPolicy` is the member-side ground truth: which other
members should receive the member's routes via the route server, and how
that intent is encoded into RS communities.  The paper observed that the
community values applied by a member are remarkably consistent across its
prefixes (fewer than 0.5% of members differed, and only on <2% of their
prefixes); per-prefix overrides model that residual inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.bgp.asn import Private16BitMapper
from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.ixp.community_schemes import CommunityScheme

MODE_ALL_EXCEPT = "all-except"
MODE_NONE_EXCEPT = "none-except"


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
    #: Optional per-prefix deviations: prefix -> (mode, listed).
    prefix_overrides: Dict[Prefix, "MemberExportPolicy"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ALL_EXCEPT, MODE_NONE_EXCEPT):
            raise ValueError(f"unknown export mode {self.mode!r}")
        self.listed = frozenset(self.listed)

    # -- semantics ---------------------------------------------------------------

    def allows(self, peer_asn: int, prefix: Optional[Prefix] = None) -> bool:
        """True if routes (for *prefix*, if given) should reach *peer_asn*."""
        policy = self._effective(prefix)
        if policy.mode == MODE_ALL_EXCEPT:
            return peer_asn not in policy.listed
        return peer_asn in policy.listed

    def allowed_members(self, members: Iterable[int],
                        prefix: Optional[Prefix] = None) -> Set[int]:
        """Members (other than the announcer) allowed to receive routes."""
        return {m for m in members
                if m != self.member_asn and self.allows(m, prefix)}

    def blocked_members(self, members: Iterable[int],
                        prefix: Optional[Prefix] = None) -> Set[int]:
        """Members explicitly prevented from receiving routes."""
        return {m for m in members
                if m != self.member_asn and not self.allows(m, prefix)}

    def _effective(self, prefix: Optional[Prefix]) -> "MemberExportPolicy":
        if prefix is not None and prefix in self.prefix_overrides:
            return self.prefix_overrides[prefix]
        return self

    # -- encoding ----------------------------------------------------------------

    def communities_for(
        self,
        scheme: CommunityScheme,
        prefix: Optional[Prefix] = None,
        mapper: Optional[Private16BitMapper] = None,
    ) -> FrozenSet[Community]:
        """The RS communities the member attaches when announcing *prefix*."""
        policy = self._effective(prefix)
        return scheme.encode_policy(policy.mode, sorted(policy.listed), mapper)

    def with_override(self, prefix: Prefix, mode: str,
                      listed: Iterable[int]) -> "MemberExportPolicy":
        """Return a copy with a per-prefix deviation added."""
        override = MemberExportPolicy(
            member_asn=self.member_asn, ixp_name=self.ixp_name,
            mode=mode, listed=frozenset(listed))
        overrides = dict(self.prefix_overrides)
        overrides[prefix] = override
        return MemberExportPolicy(
            member_asn=self.member_asn, ixp_name=self.ixp_name,
            mode=self.mode, listed=self.listed, prefix_overrides=overrides)

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

    @classmethod
    def none_except(cls, member_asn: int, ixp_name: str,
                    included: Iterable[int]) -> "MemberExportPolicy":
        """NONE + INCLUDE policy."""
        return cls(member_asn=member_asn, ixp_name=ixp_name,
                   mode=MODE_NONE_EXCEPT, listed=frozenset(included))

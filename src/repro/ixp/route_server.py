"""IXP route server.

The route server accepts announcements from members, interprets the RS
communities attached to each announcement under the IXP's community
scheme, and re-advertises routes to exactly the members the announcing
member allowed.  Filtering is driven by the *communities actually
attached* (not by the member's ground-truth intent), which is what makes
the substrate faithful: anything the inference algorithm later recovers
was genuinely encoded on the wire.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.bgp.asn import Private16BitMapper, is_32bit_asn
from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.ixp.community_schemes import CommunityScheme, RSAction
from repro.ixp.member import MemberExportPolicy


@dataclass(frozen=True)
class RouteServerEntry:
    """One route held by the route server."""

    member_asn: int
    prefix: Prefix
    as_path: Tuple[int, ...]
    communities: FrozenSet[Community]


class RouteServer:
    """A single IXP route server (one BGP speaker).

    Members are registered with their IXP-LAN IP address and an export
    policy; :meth:`announce` stores a route tagged with the communities
    derived from that policy (or explicitly provided communities, to model
    misconfigurations and per-prefix inconsistencies).
    """

    def __init__(
        self,
        ixp_name: str,
        rs_asn: int,
        scheme: CommunityScheme,
        transparent: bool = True,
    ) -> None:
        self.ixp_name = ixp_name
        self.rs_asn = rs_asn
        self.scheme = scheme
        #: Whether the RS strips its own ASN from re-advertised paths.
        self.transparent = transparent
        self.mapper = Private16BitMapper()
        self._members: Dict[int, MemberExportPolicy] = {}
        self._member_ips: Dict[int, str] = {}
        self._ip_to_member: Dict[str, int] = {}
        #: prefix -> member ASN -> entry
        self._rib: Dict[Prefix, Dict[int, RouteServerEntry]] = {}
        #: member ASN -> (policy, the communities it encodes to): one
        #: encoding per installed policy object, shared by every RIB
        #: entry the member announces under it (policies are replaced on
        #: change, never mutated, so an identity match is exact).
        self._encoded: Dict[int, Tuple[MemberExportPolicy,
                                       FrozenSet[Community]]] = {}
        #: communities -> (has NONE, resolved includes, resolved excludes);
        #: invalidated whenever membership (and thus the mapper) changes.
        self._classify_cache: Dict[FrozenSet[Community],
                                   Tuple[bool, FrozenSet[int], FrozenSet[int]]] = {}
        #: monotonic mutation counter, bumped by every membership/RIB
        #: change; caches keyed on looking-glass views (e.g. the
        #: inference engine's observation planes) validate against it.
        self.version = 0

    def copy(self) -> "RouteServer":
        """A copy that mutates independently of this route server: the
        member, IP and reverse-IP maps, the RIB (two levels deep), the
        private-ASN mapper, the encoded-policy and classify caches are
        copied; the scheme, the member policies (replaced on change,
        never written) and the frozen RIB entries are shared.  Equal to
        ``copy.deepcopy(route_server)``, without walking every object.
        """
        clone = copy.copy(self)
        clone.mapper = self.mapper.copy()
        clone._members = dict(self._members)
        clone._member_ips = dict(self._member_ips)
        clone._ip_to_member = dict(self._ip_to_member)
        clone._rib = {prefix: dict(routes)
                      for prefix, routes in self._rib.items()}
        clone._encoded = dict(self._encoded)
        clone._classify_cache = dict(self._classify_cache)
        return clone

    # -- membership ---------------------------------------------------------------

    def add_member(
        self,
        member_asn: int,
        policy: Optional[MemberExportPolicy] = None,
        ip_address: Optional[str] = None,
    ) -> MemberExportPolicy:
        """Register a member session on the route server."""
        if policy is None:
            policy = MemberExportPolicy.announce_to_all(member_asn, self.ixp_name)
        if policy.member_asn != member_asn:
            raise ValueError("policy member ASN does not match the session ASN")
        self._members[member_asn] = policy
        self.version += 1
        if is_32bit_asn(member_asn):
            self.mapper.register(member_asn)
        if ip_address is None:
            ip_address = f"10.{(member_asn >> 8) & 0xFF}.{member_asn & 0xFF}.1"
        self._member_ips[member_asn] = ip_address
        self._ip_to_member[ip_address] = member_asn
        self._classify_cache.clear()
        return policy

    def remove_member(self, member_asn: int) -> None:
        """Tear down a member session and drop its routes."""
        self._members.pop(member_asn, None)
        self._encoded.pop(member_asn, None)
        self.version += 1
        ip = self._member_ips.pop(member_asn, None)
        if ip is not None:
            self._ip_to_member.pop(ip, None)
        for per_prefix in list(self._rib.values()):
            per_prefix.pop(member_asn, None)
        self._rib = {p: routes for p, routes in self._rib.items() if routes}
        self._classify_cache.clear()

    def members(self) -> List[int]:
        """ASNs of all connected members."""
        return sorted(self._members)

    def num_members(self) -> int:
        """Number of connected members (no sorting, O(1))."""
        return len(self._members)

    def member_set(self) -> Set[int]:
        """ASNs of all connected members as a set view copy."""
        return set(self._members)

    def is_member(self, asn: int) -> bool:
        """True if *asn* has a session with the route server."""
        return asn in self._members

    def member_policy(self, asn: int) -> MemberExportPolicy:
        """Ground-truth export policy of *asn* (KeyError if not a member)."""
        return self._members[asn]

    def member_communities(self, asn: int) -> FrozenSet[Community]:
        """The RS communities *asn*'s export policy encodes to under the
        IXP's scheme (KeyError if not a member), encoded once per
        installed policy object."""
        policy = self._members[asn]
        encoded = self._encoded.get(asn)
        if encoded is None or encoded[0] is not policy:
            encoded = (policy, policy.communities_for(self.scheme,
                                                      self.mapper))
            self._encoded[asn] = encoded
        return encoded[1]

    def member_ip(self, asn: int) -> str:
        """IXP-LAN IP address of *asn*."""
        return self._member_ips[asn]

    def member_by_ip(self, ip_address: str) -> int:
        """Member ASN for an IXP-LAN IP address."""
        return self._ip_to_member[ip_address]

    # -- announcements --------------------------------------------------------------

    def announce(
        self,
        member_asn: int,
        prefix: Prefix,
        as_path: Optional[Iterable[int]] = None,
        communities: Optional[Iterable[Community]] = None,
    ) -> RouteServerEntry:
        """Store an announcement from *member_asn*.

        If *communities* is None they are derived from the member's export
        policy under the IXP scheme; an explicit value models announcements
        whose communities deviate from the member's usual policy.
        """
        if member_asn not in self._members:
            raise KeyError(f"AS{member_asn} is not a member of {self.ixp_name} RS")
        if as_path is None:
            as_path = (member_asn,)
        path = tuple(as_path)
        if not path or path[0] != member_asn:
            path = (member_asn,) + path
        if communities is None:
            communities = self.member_communities(member_asn)
        entry = RouteServerEntry(
            member_asn=member_asn,
            prefix=prefix,
            as_path=path,
            communities=frozenset(communities),
        )
        self._rib.setdefault(prefix, {})[member_asn] = entry
        self.version += 1
        return entry

    def withdraw(self, member_asn: int, prefix: Prefix) -> bool:
        """Withdraw *prefix* previously announced by *member_asn*."""
        per_prefix = self._rib.get(prefix)
        if not per_prefix or member_asn not in per_prefix:
            return False
        del per_prefix[member_asn]
        if not per_prefix:
            del self._rib[prefix]
        self.version += 1
        return True

    # -- RIB queries -------------------------------------------------------------------

    def prefixes(self) -> List[Prefix]:
        """All prefixes present in the route-server RIB."""
        return sorted(self._rib)

    def routes_for_prefix(self, prefix: Prefix) -> List[RouteServerEntry]:
        """All member announcements for *prefix*."""
        return sorted(self._rib.get(prefix, {}).values(),
                      key=lambda e: e.member_asn)

    def routes_from_member(self, member_asn: int) -> List[RouteServerEntry]:
        """All announcements made by *member_asn*."""
        result = [per_prefix[member_asn] for per_prefix in self._rib.values()
                  if member_asn in per_prefix]
        return sorted(result, key=lambda e: e.prefix)

    def announced_prefixes(self, member_asn: int) -> List[Prefix]:
        """Prefixes announced by *member_asn*."""
        return [entry.prefix for entry in self.routes_from_member(member_asn)]

    def members_announcing(self, prefix: Prefix) -> List[int]:
        """Members that announced *prefix* (figure 5's multiplicity)."""
        return sorted(self._rib.get(prefix, {}))

    def __len__(self) -> int:
        return sum(len(per_prefix) for per_prefix in self._rib.values())

    # -- export filtering -----------------------------------------------------------------

    def _member_allowed(self, member_asn: int, entry: RouteServerEntry) -> bool:
        """Whether the route server exports *entry* to *member_asn*."""
        if member_asn == entry.member_asn:
            return False
        has_none, includes, excludes = self._classify(entry.communities)
        if has_none:
            return member_asn in includes
        return member_asn not in excludes

    def _classify(
        self, communities: FrozenSet[Community]
    ) -> Tuple[bool, FrozenSet[int], FrozenSet[int]]:
        """Scheme classification of a community bag, memoised.

        Announcements overwhelmingly share a small number of distinct
        community bags (one per member policy, plus per-prefix
        deviations), so export filtering hits this cache almost always.
        """
        cached = self._classify_cache.get(communities)
        if cached is None:
            classified = self.scheme.classify_set(communities)
            has_none = any(c.action is RSAction.NONE for _, c in classified)
            includes = frozenset(
                self.mapper.resolve(c.peer_asn)
                for _, c in classified
                if c.action is RSAction.INCLUDE and c.peer_asn is not None)
            excludes = frozenset(
                self.mapper.resolve(c.peer_asn)
                for _, c in classified
                if c.action is RSAction.EXCLUDE and c.peer_asn is not None)
            cached = (has_none, includes, excludes)
            self._classify_cache[communities] = cached
        return cached

    def exports_to(self, member_asn: int) -> List[RouteServerEntry]:
        """Routes the route server advertises to *member_asn*.

        The exported path keeps the announcing member as the first hop;
        non-transparent route servers additionally leave their own ASN in
        the path (the artefact observed in 3 of the paper's validation
        cases).
        """
        if member_asn not in self._members:
            raise KeyError(f"AS{member_asn} is not a member of {self.ixp_name} RS")
        exported: List[RouteServerEntry] = []
        for per_prefix in self._rib.values():
            for entry in per_prefix.values():
                if entry.member_asn == member_asn:
                    continue
                if self._member_allowed(member_asn, entry):
                    path = entry.as_path
                    if not self.transparent:
                        path = (self.rs_asn,) + path
                    exported.append(RouteServerEntry(
                        member_asn=entry.member_asn,
                        prefix=entry.prefix,
                        as_path=path,
                        communities=entry.communities,
                    ))
        return sorted(exported, key=lambda e: (e.prefix, e.member_asn))

    # -- ground truth ---------------------------------------------------------------------

"""Interpretation of route-server communities found on routes.

Given the community set attached to an observed route, this module
answers the two questions of section 4.2:

* *which IXP route server* were these communities aimed at?  Usually one
  half of the community encodes the route-server ASN; when it does not
  (e.g. a bare list of ``0:peer-asn`` EXCLUDEs), the combination of
  excluded ASes is matched against the membership of each candidate IXP;
* *what do they say*: the per-IXP classification into ALL / EXCLUDE /
  NONE / INCLUDE actions with the referenced peer ASNs resolved back to
  real member ASNs (through the IXP's private-ASN mapping when needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bgp.asn import Private16BitMapper
from repro.bgp.communities import Community
from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.ixp.community_schemes import (
    Classification,
    CommunityScheme,
    RSAction,
    SchemeRegistry,
)


@dataclass(frozen=True)
class IXPIdentification:
    """Outcome of attributing a community set to one IXP route server."""

    ixp_name: str
    #: True when the RS ASN appeared in the community values (strong signal).
    rs_asn_match: bool
    #: Fraction of referenced peer ASNs that are members of the IXP's RS.
    member_overlap: float
    #: The classified communities under the IXP's scheme.
    classifications: Tuple[Tuple[Community, Classification], ...] = ()

    @property
    def confidence(self) -> float:
        """Simple confidence score combining both signals."""
        return (1.0 if self.rs_asn_match else 0.0) + self.member_overlap


@dataclass
class InterpretedPolicy:
    """The export policy encoded by one community set at one IXP."""

    ixp_name: str
    mode: str                      #: "all-except" or "none-except"
    listed: FrozenSet[int]         #: resolved real member ASNs
    unresolved: FrozenSet[int] = frozenset()  #: 16-bit values we could not resolve


class RSCommunityInterpreter:
    """Classify and attribute RS communities against known IXP schemes."""

    def __init__(
        self,
        registry: SchemeRegistry,
        rs_members: Mapping[str, Iterable[int]],
        mappers: Optional[Mapping[str, Private16BitMapper]] = None,
        min_member_overlap: float = 0.99,
    ) -> None:
        self.registry = registry
        self.rs_members: Dict[str, Set[int]] = {
            name: set(members) for name, members in rs_members.items()}
        self.mappers: Dict[str, Private16BitMapper] = dict(mappers or {})
        #: Overlap required to attribute an ambiguous community set to an IXP.
        self.min_member_overlap = min_member_overlap
        # Distinct community bags are few (one per member policy plus
        # per-prefix deviations) while observed routes are many, so the
        # three interpretation entry points are memoised per bag.
        # Mutating rs_members or a mapper invalidates the memos: use
        # update_members(), or call clear_caches() after a direct
        # mutation.  Scheme replacement in the registry is detected
        # automatically via registry.version.  Downstream caches (e.g.
        # the passive setter memo) validate against cache_epoch, so
        # clearing here reaches them.
        self._interpret_cache: Dict[Tuple[str, FrozenSet[Community]],
                                    Optional[InterpretedPolicy]] = {}
        #: keyed on (min_member_overlap, bag): the threshold is a public
        #: tunable and changing it must not serve stale identifications.
        self._identify_cache: Dict[Tuple[float, FrozenSet[Community]],
                                   Optional[IXPIdentification]] = {}
        self._rs_only_cache: Dict[Tuple[str, FrozenSet[Community]],
                                  FrozenSet[Community]] = {}
        self._cache_epoch = 0
        self._registry_version_seen = registry.version
        self._members_counts_seen = self._members_fingerprint()

    @property
    def cache_epoch(self) -> int:
        """Monotonic counter bumped by :meth:`clear_caches`; caches built
        on this interpreter's answers store it and revalidate against it.
        Reading the epoch first runs the staleness detection, so a
        detectable registry/membership change bumps it immediately."""
        self._validate_caches()
        return self._cache_epoch

    def clear_caches(self) -> None:
        """Drop memoised interpretations (after member/mapper changes)."""
        self._interpret_cache.clear()
        self._identify_cache.clear()
        self._rs_only_cache.clear()
        self._cache_epoch += 1
        self._registry_version_seen = self.registry.version
        self._members_counts_seen = self._members_fingerprint()

    def _members_fingerprint(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted((name, len(members))
                            for name, members in self.rs_members.items()))

    def _validate_caches(self) -> None:
        """Drop the memos if the scheme registry or (detectably) the
        member populations changed under us.

        Membership is compared by per-IXP counts, which catches the
        common in-place ``rs_members[ixp].add/discard`` mutations live;
        an equal-size member *swap* still needs an explicit
        :meth:`clear_caches` / :meth:`update_members`.
        """
        if self._registry_version_seen != self.registry.version or \
                self._members_counts_seen != self._members_fingerprint():
            self.clear_caches()

    # -- per-IXP helpers ----------------------------------------------------------

    def resolve_peer(self, ixp_name: str, encoded_asn: int) -> int:
        """Resolve a community-encoded peer ASN to the real member ASN."""
        mapper = self.mappers.get(ixp_name)
        if mapper is None:
            return encoded_asn
        return mapper.resolve(encoded_asn)

    def classify_for_ixp(
        self, ixp_name: str, communities: Iterable[Community]
    ) -> List[Tuple[Community, Classification]]:
        """Classify *communities* under the scheme of *ixp_name*."""
        scheme = self.registry.get(ixp_name)
        return scheme.classify_set(communities)

    def interpret_for_ixp(
        self, ixp_name: str, communities: Iterable[Community]
    ) -> Optional[InterpretedPolicy]:
        """Turn a community set into an :class:`InterpretedPolicy` for
        *ixp_name* (None if no community belongs to the scheme).

        NONE + INCLUDE wins over ALL + EXCLUDE when both appear, matching
        route-server semantics (section 4.1, step 4).
        """
        cache_key: Optional[Tuple[str, FrozenSet[Community]]] = None
        if isinstance(communities, frozenset):
            self._validate_caches()
            cache_key = (ixp_name, communities)
            cached = self._interpret_cache.get(cache_key, _MISS)
            if cached is not _MISS:
                return cached
        result = self._interpret_for_ixp_uncached(ixp_name, communities)
        if cache_key is not None:
            self._interpret_cache[cache_key] = result
        return result

    def _interpret_for_ixp_uncached(
        self, ixp_name: str, communities: Iterable[Community]
    ) -> Optional[InterpretedPolicy]:
        classified = self.classify_for_ixp(ixp_name, communities)
        if not classified:
            return None
        members = self.rs_members.get(ixp_name, set())
        has_none = any(c.action is RSAction.NONE for _, c in classified)
        includes: Set[int] = set()
        excludes: Set[int] = set()
        unresolved: Set[int] = set()
        for _, classification in classified:
            if classification.peer_asn is None:
                continue
            resolved = self.resolve_peer(ixp_name, classification.peer_asn)
            target = includes if classification.action is RSAction.INCLUDE else (
                excludes if classification.action is RSAction.EXCLUDE else None)
            if target is None:
                continue
            if members and resolved not in members:
                unresolved.add(classification.peer_asn)
            target.add(resolved)
        if has_none:
            return InterpretedPolicy(
                ixp_name=ixp_name, mode=MODE_NONE_EXCEPT,
                listed=frozenset(includes), unresolved=frozenset(unresolved))
        return InterpretedPolicy(
            ixp_name=ixp_name, mode=MODE_ALL_EXCEPT,
            listed=frozenset(excludes), unresolved=frozenset(unresolved))

    # -- IXP identification ---------------------------------------------------------

    def identify_ixps(
        self, communities: Iterable[Community]
    ) -> List[IXPIdentification]:
        """Candidate IXPs whose route server these communities target.

        Candidates are ranked by confidence: schemes whose RS ASN appears
        in the values come first; otherwise the combination of referenced
        peer ASNs must (almost) all be members of the candidate IXP
        (section 4.2's disambiguation for bare EXCLUDE lists).
        """
        community_list = list(communities)
        results: List[IXPIdentification] = []
        for scheme in self.registry:
            classified = scheme.classify_set(community_list)
            if not classified:
                continue
            rs_asn_match = scheme.mentions_rs_asn(
                community for community, _ in classified)
            overlap = self._member_overlap(scheme, classified)
            if not rs_asn_match and overlap < self.min_member_overlap:
                continue
            results.append(IXPIdentification(
                ixp_name=scheme.ixp_name,
                rs_asn_match=rs_asn_match,
                member_overlap=overlap,
                classifications=tuple(classified),
            ))
        results.sort(key=lambda r: (-r.confidence, r.ixp_name))
        return results

    def identify_unique_ixp(
        self, communities: Iterable[Community]
    ) -> Optional[IXPIdentification]:
        """The single IXP the communities can be attributed to, or None if
        the attribution is ambiguous or impossible (conservative)."""
        cache_key: Optional[Tuple[float, FrozenSet[Community]]] = None
        if isinstance(communities, frozenset):
            self._validate_caches()
            cache_key = (self.min_member_overlap, communities)
            cached = self._identify_cache.get(cache_key, _MISS)
            if cached is not _MISS:
                return cached
        result = self._identify_unique_ixp_uncached(communities)
        if cache_key is not None:
            self._identify_cache[cache_key] = result
        return result

    def _identify_unique_ixp_uncached(
        self, communities: Iterable[Community]
    ) -> Optional[IXPIdentification]:
        candidates = self.identify_ixps(communities)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        strong = [c for c in candidates if c.rs_asn_match]
        if len(strong) == 1:
            return strong[0]
        # Several candidates: accept the best only if it clearly dominates.
        best, runner_up = candidates[0], candidates[1]
        if best.confidence > runner_up.confidence + 0.5:
            return best
        return None

    def _member_overlap(
        self,
        scheme: CommunityScheme,
        classified: Iterable[Tuple[Community, Classification]],
    ) -> float:
        members = self.rs_members.get(scheme.ixp_name, set())
        referenced: Set[int] = set()
        for _, classification in classified:
            if classification.peer_asn is None:
                continue
            if classification.action in (RSAction.EXCLUDE, RSAction.INCLUDE):
                referenced.add(self.resolve_peer(scheme.ixp_name,
                                                 classification.peer_asn))
        if not referenced:
            return 0.0
        if not members:
            return 0.0
        inside = sum(1 for asn in referenced if asn in members)
        return inside / len(referenced)

    # -- convenience ------------------------------------------------------------------

    def rs_communities_only(
        self, ixp_name: str, communities: Iterable[Community]
    ) -> FrozenSet[Community]:
        """The subset of *communities* that belongs to the IXP's grammar."""
        cache_key: Optional[Tuple[str, FrozenSet[Community]]] = None
        if isinstance(communities, frozenset):
            self._validate_caches()
            cache_key = (ixp_name, communities)
            cached = self._rs_only_cache.get(cache_key)
            if cached is not None:
                return cached
        scheme = self.registry.get(ixp_name)
        result = frozenset(c for c in communities if scheme.is_rs_community(c))
        if cache_key is not None:
            self._rs_only_cache[cache_key] = result
        return result


#: Cache-miss sentinel (None is a valid cached value).
_MISS = object()

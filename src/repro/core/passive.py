"""Passive inference from archived collector data (section 4.2).

Collector feeds expose RS communities because BGP communities are
optional *transitive* attributes: when an RS member (the *RS feeder*)
re-exports routes learned via a route server to its customers or to a
collector, the communities attached by the announcing members survive.
The passive pipeline is:

1. filter the archived AS paths (reserved/private ASNs, cycles,
   transients);
2. classify the communities on each surviving entry and attribute them to
   an IXP route server (RS-ASN match or excluded-member combination);
3. pin-point the *RS setter* — the member that attached the communities —
   from the IXP participants on the AS path, using inferred business
   relationships when more than two participants appear;
4. emit per-(IXP, setter, prefix) policy observations that feed the same
   step-4/step-5 machinery as the active data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.messages import RibEntry
from repro.bgp.policy import MODE_ALL_EXCEPT, Relationship
from repro.bgp.prefix import Prefix
from repro.core.communities import RSCommunityInterpreter
from repro.core.reachability import PolicyObservation
from repro.topology.relationships import RelationshipMap


@dataclass(frozen=True)
class PassiveObservation:
    """One passively observed application of RS communities."""

    ixp_name: str
    setter_asn: int
    prefix: Prefix
    communities: FrozenSet[Community]
    feeder_asn: int
    rs_asn_match: bool = True


@dataclass
class PassiveStats:
    """Book-keeping of the passive extraction for reporting."""

    entries_seen: int = 0
    entries_dirty: int = 0
    entries_without_rs_communities: int = 0
    entries_ambiguous_ixp: int = 0
    entries_without_setter: int = 0
    observations: int = 0


class PassiveInference:
    """Extract RS-community observations from collector archives."""

    def __init__(
        self,
        interpreter: RSCommunityInterpreter,
        relationships: Optional[Mapping[Tuple[int, int], Relationship]] = None,
    ) -> None:
        self.interpreter = interpreter
        #: Ordered-pair relationship map used for the >2-participant case
        #: (read-only; a graph's snapshot is kept as is, not copied).
        self.relationships = RelationshipMap.of(relationships)
        self.stats = PassiveStats()
        # The same AS path recurs once per prefix the feeder exports, so
        # setter pin-pointing is memoised per (IXP, path).  The cache is
        # strictly per-instance: cached setters depend on this instance's
        # relationship snapshot, so sharing across instances (or across
        # engine runs, whose relationship maps may differ) would serve
        # stale attributions.  Entries carry the interpreter's
        # cache_epoch, so a membership change followed by
        # interpreter.clear_caches() (or update_members()) invalidates
        # them here too.
        self._setter_cache: Dict[Tuple[str, Tuple[int, ...]],
                                 Tuple[int, Optional[int]]] = {}

    # -- extraction ------------------------------------------------------------------

    def extract(self, entries: Iterable[RibEntry]) -> List[PassiveObservation]:
        """Run the passive pipeline over archived RIB entries."""
        observations: List[PassiveObservation] = []
        for entry in entries:
            self.stats.entries_seen += 1
            if not entry.is_clean():
                self.stats.entries_dirty += 1
                continue
            if not entry.communities:
                self.stats.entries_without_rs_communities += 1
                continue
            identification = self.interpreter.identify_unique_ixp(entry.communities)
            if identification is None:
                if self.interpreter.identify_ixps(entry.communities):
                    self.stats.entries_ambiguous_ixp += 1
                else:
                    self.stats.entries_without_rs_communities += 1
                continue
            ixp_name = identification.ixp_name
            setter = self.identify_setter(ixp_name, entry.as_path)
            if setter is None:
                self.stats.entries_without_setter += 1
                continue
            rs_communities = self.interpreter.rs_communities_only(
                ixp_name, entry.communities)
            observations.append(PassiveObservation(
                ixp_name=ixp_name,
                setter_asn=setter,
                prefix=entry.prefix,
                communities=rs_communities,
                feeder_asn=entry.peer_asn,
                rs_asn_match=identification.rs_asn_match,
            ))
            self.stats.observations += 1
        return observations

    # -- setter identification ----------------------------------------------------------

    def identify_setter(self, ixp_name: str, as_path: ASPath) -> Optional[int]:
        """Pin-point the RS setter on an entry's AS path (section 4.2).

        The path is ordered observer-side first, origin last.  The three
        cases: fewer than two IXP participants -> unknown; exactly two ->
        the participant closer to the origin; more than two -> the
        participant closer to the origin among the (single) pair of
        adjacent participants with a p2p relationship.
        """
        epoch = self.interpreter.cache_epoch
        cache_key = (ixp_name, as_path.asns)
        cached = self._setter_cache.get(cache_key)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        members = self.interpreter.rs_members.get(ixp_name, set())
        path = as_path.deduplicated().asns
        participant_positions = [index for index, asn in enumerate(path)
                                 if asn in members]
        if len(participant_positions) < 2:
            setter = None
        elif len(participant_positions) == 2:
            setter = path[participant_positions[-1]]
        else:
            setter = self._setter_from_relationships(path, participant_positions)
        self._setter_cache[cache_key] = (epoch, setter)
        return setter

    def _setter_from_relationships(
        self, path: Tuple[int, ...], participant_positions: List[int]
    ) -> Optional[int]:
        # Look for an adjacent pair of participants whose link is p2p; the
        # setter is the endpoint closer to the prefix (larger index).
        p2p_pairs: List[Tuple[int, int]] = []
        for left_pos, right_pos in zip(participant_positions,
                                       participant_positions[1:]):
            if right_pos != left_pos + 1:
                continue
            left, right = path[left_pos], path[right_pos]
            # Peering reads the same from either end of the link.
            relationship = self.relationships.get((left, right)) \
                or self.relationships.get((right, left))
            if relationship in (Relationship.PEER, Relationship.RS_PEER):
                p2p_pairs.append((left_pos, right_pos))
        if len(p2p_pairs) == 1:
            return path[p2p_pairs[0][1]]
        if not p2p_pairs:
            # No p2p link identified among participants: fall back to the
            # participant closest to the origin (conservative choice).
            return path[participant_positions[-1]]
        # More than one p2p pair should not happen on a valley-free path;
        # refuse to guess.
        return None

    # -- conversion -------------------------------------------------------------------------

    def policy_observations(
        self, observations: Iterable[PassiveObservation]
    ) -> List[PolicyObservation]:
        """Convert passive observations into per-prefix policy observations."""
        result: List[PolicyObservation] = []
        for observation in observations:
            interpreted = self.interpreter.interpret_for_ixp(
                observation.ixp_name, observation.communities)
            if interpreted is None:
                result.append(PolicyObservation(
                    member_asn=observation.setter_asn,
                    ixp_name=observation.ixp_name,
                    prefix=observation.prefix,
                    mode=MODE_ALL_EXCEPT, listed=frozenset(),
                    source="passive"))
                continue
            result.append(PolicyObservation(
                member_asn=observation.setter_asn,
                ixp_name=observation.ixp_name,
                prefix=observation.prefix,
                mode=interpreted.mode,
                listed=interpreted.listed,
                source="passive"))
        return result

    def covered_members(
        self, observations: Iterable[PassiveObservation]
    ) -> Dict[str, Set[int]]:
        """Per-IXP set of members whose communities were obtained passively
        (ARS_passive of equation 2)."""
        result: Dict[str, Set[int]] = {}
        for observation in observations:
            result.setdefault(observation.ixp_name, set()).add(observation.setter_asn)
        return result

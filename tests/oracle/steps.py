"""The object step functions of section 4, kept as the oracle.

Production runs steps 2-5 on interned integer rows
(:mod:`repro.core.planes`).  This module keeps the object version the
rows replaced, which the per-IXP oracle engine
(:mod:`tests.oracle.inference`) and the step unit tests build on:

* step 2, passive: :class:`PassiveInference` turns archived RIB entries
  that pass the sanity filters
  (:func:`~tests.oracle.observation.entry_is_clean`) into one
  :class:`PassiveObservation` per attributable entry
  (:meth:`~PassiveInference.extract`, with :class:`PassiveStats`
  book-keeping), then into policy observations; the setter rule itself
  is production's :func:`repro.core.passive.identify_setter`;
* step 3, active: :func:`interpret_raw_observations` turns a looking
  glass's raw (prefix, communities) pairs into policy observations;
* step 4: :func:`merge_observations` merges one member's
  :class:`PolicyObservation` objects into its
  :class:`MemberReachability` N_a with set arithmetic, the reference
  for the id-level :func:`repro.core.planes.merge_rows`;
* step 5: :func:`infer_links` emits the reciprocal-ALLOW pairs with the
  integer-bitmask rule of :mod:`tests.oracle.reachability`
  (:func:`~tests.oracle.reachability.allow_mask_for` and
  :func:`~tests.oracle.reachability.reciprocal_pairs`), independent of
  the packed ``M & M.T`` kernel production runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.messages import RibEntry
from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT, Relationship
from repro.bgp.prefix import Prefix
from repro.core.communities import RSCommunityInterpreter
from repro.core.passive import identify_setter
from repro.runtime.bitset import BitsetIndex
from repro.topology.relationships import RelationshipMap

from tests.oracle.observation import entry_is_clean
from tests.oracle.reachability import allow_mask_for, reciprocal_pairs

Link = Tuple[int, int]


# -- policy observations and their merge (step 4) ------------------------------


@dataclass(frozen=True)
class PolicyObservation:
    """The policy encoded on one observed announcement of one member."""

    member_asn: int
    ixp_name: str
    prefix: Optional[Prefix]
    mode: str
    listed: FrozenSet[int]
    source: str = "active"        #: "active", "passive" or "third-party"

    def allowed(self, members: Iterable[int]) -> Set[int]:
        """N_{a,p}: members allowed to receive this announcement."""
        others = {m for m in members if m != self.member_asn}
        if self.mode == MODE_ALL_EXCEPT:
            return others - set(self.listed)
        return others & set(self.listed)


@dataclass
class MemberReachability:
    """The reconstructed export policy N_a of one member at one IXP."""

    member_asn: int
    ixp_name: str
    mode: str
    listed: FrozenSet[int]
    sources: FrozenSet[str] = frozenset()
    prefixes_observed: int = 0
    inconsistent_prefixes: int = 0

    def allows(self, peer_asn: int) -> bool:
        """True if *peer_asn* is in N_a."""
        if peer_asn == self.member_asn:
            return False
        if self.mode == MODE_ALL_EXCEPT:
            return peer_asn not in self.listed
        return peer_asn in self.listed

    def allowed_members(self, members: Iterable[int]) -> Set[int]:
        """N_a restricted to the given member population."""
        return {m for m in members if m != self.member_asn and self.allows(m)}


def merge_observations(
    observations: Sequence[PolicyObservation],
    members: Iterable[int],
) -> Optional[MemberReachability]:
    """Merge all observations of one member at one IXP into N_a.

    Returns None for an empty observation list.  When observations
    disagree, N_a is the intersection of the per-prefix allowed sets
    (conservative, per step 4): the union of the excludes when every
    observation is all-except, the intersection of the includes when
    every one is none-except, else the explicit allowed set over
    *members* in ``none-except`` form.
    """
    observations = list(observations)
    if not observations:
        return None
    member_asn = observations[0].member_asn
    ixp_name = observations[0].ixp_name
    for observation in observations:
        if observation.member_asn != member_asn or observation.ixp_name != ixp_name:
            raise ValueError("observations must belong to one (member, IXP) pair")

    member_set = set(members)
    sources = frozenset(o.source for o in observations)
    distinct_policies = {(o.mode, o.listed) for o in observations}
    prefixes = {o.prefix for o in observations if o.prefix is not None}
    prefixes_observed = len(prefixes) if prefixes else len(observations)

    if len(distinct_policies) == 1:
        mode, listed = next(iter(distinct_policies))
        return MemberReachability(
            member_asn=member_asn, ixp_name=ixp_name, mode=mode,
            listed=listed, sources=sources,
            prefixes_observed=prefixes_observed, inconsistent_prefixes=0)

    # Inconsistent announcements: fall back to the explicit intersection.
    modes = {o.mode for o in observations}
    inconsistent = _count_inconsistent(observations)
    if modes == {MODE_ALL_EXCEPT}:
        # Intersection of (ARS - E_p) == ARS - union(E_p).
        union_excludes: Set[int] = set()
        for observation in observations:
            union_excludes |= set(observation.listed)
        return MemberReachability(
            member_asn=member_asn, ixp_name=ixp_name, mode=MODE_ALL_EXCEPT,
            listed=frozenset(union_excludes), sources=sources,
            prefixes_observed=prefixes_observed,
            inconsistent_prefixes=inconsistent)
    if modes == {MODE_NONE_EXCEPT}:
        # Intersection of I_p.
        includes: Optional[Set[int]] = None
        for observation in observations:
            listed = set(observation.listed)
            includes = listed if includes is None else includes & listed
        return MemberReachability(
            member_asn=member_asn, ixp_name=ixp_name, mode=MODE_NONE_EXCEPT,
            listed=frozenset(includes or set()), sources=sources,
            prefixes_observed=prefixes_observed,
            inconsistent_prefixes=inconsistent)

    # Mixed modes: compute N_a against the known member population.
    allowed: Optional[Set[int]] = None
    for observation in observations:
        per_prefix = observation.allowed(member_set)
        allowed = per_prefix if allowed is None else allowed & per_prefix
    return MemberReachability(
        member_asn=member_asn, ixp_name=ixp_name, mode=MODE_NONE_EXCEPT,
        listed=frozenset(allowed or set()), sources=sources,
        prefixes_observed=prefixes_observed,
        inconsistent_prefixes=inconsistent)


def _count_inconsistent(observations: Sequence[PolicyObservation]) -> int:
    """Number of observed prefixes whose policy differs from the majority."""
    by_policy: Dict[Tuple[str, FrozenSet[int]], int] = {}
    for observation in observations:
        key = (observation.mode, observation.listed)
        by_policy[key] = by_policy.get(key, 0) + 1
    if not by_policy:
        return 0
    majority = max(by_policy.values())
    return sum(count for count in by_policy.values()) - majority


# -- link inference (step 5) ---------------------------------------------------


def infer_links(
    reachabilities: Mapping[int, MemberReachability],
    members: Iterable[int],
    index: Optional[BitsetIndex] = None,
    require_reciprocity: bool = True,
) -> Set[Link]:
    """Step 5: infer a p2p link for every pair with reciprocal ALLOW.

    Only members with a reconstructed reachability can contribute links;
    a pair (a, b) is inferred iff ``b in N_a`` and ``a in N_b`` (with
    ``require_reciprocity=False`` — the paper's ablation — a single
    direction of ALLOW suffices).  Every N_a of a member in the sorted
    member universe (or the pre-built *index*) becomes an integer
    bitmask, and the integer-bitmask kernel pairs them.
    """
    if index is None:
        index = BitsetIndex(members)
    masks = {index.bit_of[asn]: allow_mask_for(reach.mode, reach.listed,
                                               index, member_asn=asn)
             for asn, reach in reachabilities.items() if asn in index.bit_of}
    return reciprocal_pairs(masks, index.universe, require_reciprocity)


# -- active observations (step 3) ----------------------------------------------


def interpret_raw_observations(
    interpreter: RSCommunityInterpreter,
    ixp_name: str,
    observations: Mapping[int, Sequence[Tuple[Prefix, FrozenSet[Community]]]],
    source: str,
) -> List[PolicyObservation]:
    """Turn raw per-member (prefix, communities) pairs into policy
    observations; an announcement without any RS community means the
    default ALL behaviour."""
    result: List[PolicyObservation] = []
    for member_asn, entries in observations.items():
        for prefix, communities in entries:
            interpreted = interpreter.interpret_for_ixp(ixp_name, communities)
            if interpreted is None:
                result.append(PolicyObservation(
                    member_asn=member_asn, ixp_name=ixp_name,
                    prefix=prefix, mode=MODE_ALL_EXCEPT, listed=frozenset(),
                    source=source))
                continue
            result.append(PolicyObservation(
                member_asn=member_asn, ixp_name=ixp_name,
                prefix=prefix, mode=interpreted.mode,
                listed=interpreted.listed, source=source))
    return result


# -- passive observations (step 2) ---------------------------------------------


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
    """Extract RS-community observations from collector archives, one
    RIB entry at a time."""

    def __init__(
        self,
        interpreter: RSCommunityInterpreter,
        relationships: Optional[Mapping[Tuple[int, int], Relationship]] = None,
    ) -> None:
        self.interpreter = interpreter
        #: Ordered-pair relationship map used for the >2-participant case.
        self.relationships = RelationshipMap.of(relationships)
        self.stats = PassiveStats()

    def extract(self, entries: Iterable[RibEntry]) -> List[PassiveObservation]:
        """Run the passive pipeline over archived RIB entries (IXP
        identification once per distinct community bag)."""
        observations: List[PassiveObservation] = []
        identified: Dict[FrozenSet[Community], object] = {}
        for entry in entries:
            self.stats.entries_seen += 1
            if not entry_is_clean(entry):
                self.stats.entries_dirty += 1
                continue
            if not entry.communities:
                self.stats.entries_without_rs_communities += 1
                continue
            identification = identified.get(entry.communities, _MISS)
            if identification is _MISS:
                identification = identified[entry.communities] = \
                    self.interpreter.identify_unique_ixp(entry.communities)
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

    def identify_setter(self, ixp_name: str, as_path: ASPath) -> Optional[int]:
        """The RS setter of *as_path* at *ixp_name* (production's rule
        over the interpreter's members of the IXP)."""
        return identify_setter(self.interpreter.rs_members.get(ixp_name, set()),
                               as_path, self.relationships)

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


#: Memo-miss sentinel (None is a valid identification).
_MISS = object()

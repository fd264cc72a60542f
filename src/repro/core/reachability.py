"""Reachability reconstruction: from observed communities to export policies.

For each RS member *a* the algorithm builds the set N_a of members
towards which *all* of *a*'s routes are advertised (section 4.1, step 4):

* ALL + EXCLUDE observations contribute ``ARS - E_p``;
* NONE + INCLUDE observations contribute ``I_p``;
* N_a is the intersection over the observed prefixes.

Observations come from active looking-glass queries and/or passive
collector data; :func:`merge_observations` handles both and reports how
consistent the member's announcements were (the paper found fewer than
0.5% of members inconsistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.bgp.prefix import Prefix
from repro.runtime.bitset import BitsetIndex
from repro.runtime.reachmatrix import allow_plane, reciprocal_links


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
    (conservative, per step 4), expressed in ``none-except`` form.
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


def infer_links(
    reachabilities: Dict[int, MemberReachability],
    members: Iterable[int],
    index: Optional[BitsetIndex] = None,
    require_reciprocity: bool = True,
) -> Set[Tuple[int, int]]:
    """Step 5: infer a p2p link for every pair with reciprocal ALLOW.

    Only members with a reconstructed reachability can contribute links;
    a pair (a, b) is inferred iff ``b in N_a`` and ``a in N_b`` (with
    ``require_reciprocity=False`` — the paper's ablation — a single
    direction of ALLOW suffices).

    Every N_a becomes a row of the packed ALLOW plane over the sorted
    member universe (:func:`~repro.runtime.reachmatrix.allow_plane`, the
    rule the engine's planes are built with; pass a pre-built *index*
    to reuse one, e.g. from ``PipelineContext.member_index``) and the
    links come out of the ``M & M.T`` kernel
    (:func:`~repro.runtime.reachmatrix.reciprocal_links`) as sorted
    pairs.
    """
    if index is None:
        index = BitsetIndex(members)
    policies = {bit: (reachabilities[asn].mode, reachabilities[asn].listed)
                for bit, asn in enumerate(index.universe)
                if asn in reachabilities}
    return set(reciprocal_links(allow_plane(policies, index),
                                index.universe, require_reciprocity))

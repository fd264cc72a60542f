"""The per-IXP object inference engine, kept as the oracle.

Production inference (:class:`~repro.core.engine.MLPInferenceEngine`)
runs on the interned observation planes of :mod:`repro.core.planes`.
This module keeps the original object implementation of the same
pipeline: per IXP, the public step functions build one
:class:`~repro.core.reachability.PolicyObservation` per observed
(member, prefix) pair, merge them with
:func:`~repro.core.reachability.merge_observations` and infer links
with :func:`~repro.core.reachability.infer_links`.  The differential
suites require the two engines to produce bit-identical results
(:func:`identical`).  The oracle's result carries
a :class:`~repro.runtime.reachmatrix.ReachabilityMatrix` rebuilt from
its per-IXP objects (:func:`matrix_from_inferences`, ``built_by
"result"``); it has no observation counts, which only the engine's
planes record.

:func:`extract_passive_planes` is the entry-list oracle of the
production passive extraction (:func:`repro.core.planes.
extract_passive_planes`, which reads the archive's columns): the same
observation planes, policy table and prefix interner, built one
:class:`~repro.bgp.messages.RibEntry` at a time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.messages import RibEntry
from repro.bgp.policy import Relationship
from repro.core.active import (
    ActiveInference,
    collect_from_third_party_lg,
    interpret_raw_observations,
)
from repro.core.communities import RSCommunityInterpreter
from repro.core.engine import (
    IXPInference,
    Link,
    MLPInferenceEngine,
    MLPInferenceResult,
)
from repro.core.passive import PassiveInference, PassiveObservation
from repro.core.planes import (
    DEFAULT_POLICY,
    PASSIVE,
    ObservationPlane,
    PolicyTable,
)
from repro.core.reachability import (
    MemberReachability,
    PolicyObservation,
    infer_links,
    merge_observations,
)
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass
from repro.runtime.bitset import BitsetIndex
from repro.runtime.interning import Interner
from repro.runtime.reachmatrix import (
    ReachabilityMatrix,
    ReachabilityPlane,
    allow_mask_for,
    link_keys_of,
)


class ObjectInferenceEngine(MLPInferenceEngine):
    """The object-level inference pipeline (same constructor and result
    type as the production engine)."""

    def run(
        self,
        passive_entries: Optional[Iterable[RibEntry]] = None,
        rs_looking_glasses: Optional[Mapping[str, RouteServerLookingGlass]] = None,
        third_party_lgs: Optional[Mapping[str, Sequence[ASLookingGlass]]] = None,
        require_reciprocity: bool = True,
    ) -> MLPInferenceResult:
        rs_looking_glasses = dict(rs_looking_glasses or {})
        third_party_lgs = {name: list(lgs)
                           for name, lgs in (third_party_lgs or {}).items()}
        passive_by_ixp = self._run_passive(passive_entries)
        per_ixp: Dict[str, IXPInference] = {}
        # IXPs are processed in name order so run output (and any caches
        # populated along the way) is independent of mapping order.
        for ixp_name, members in sorted(self.rs_members.items()):
            per_ixp[ixp_name] = self._infer_ixp(
                ixp_name, members, passive_by_ixp.get(ixp_name, []),
                rs_looking_glasses.get(ixp_name),
                third_party_lgs.get(ixp_name, []), require_reciprocity)
        return MLPInferenceResult(
            per_ixp=per_ixp,
            matrix=matrix_from_inferences(per_ixp, context=self.context))

    def _infer_ixp(
        self,
        ixp_name: str,
        members: Set[int],
        passive_observations: Sequence[PassiveObservation],
        rs_lg: Optional[RouteServerLookingGlass],
        third_party: Sequence[ASLookingGlass],
        require_reciprocity: bool,
    ) -> IXPInference:
        """One IXP's passive/active merge and link inference."""
        inference = IXPInference(ixp_name=ixp_name, members=set(members))
        observations: List[PolicyObservation] = []

        if passive_observations:
            passive = PassiveInference(self.interpreter, self.relationships)
            observations.extend(passive.policy_observations(passive_observations))
            inference.passive_members = {
                o.setter_asn for o in passive_observations}

        covered_prefixes = {
            o.setter_asn: set() for o in passive_observations}
        for observation in passive_observations:
            covered_prefixes.setdefault(observation.setter_asn, set()).add(
                observation.prefix)

        if rs_lg is not None:
            active = ActiveInference(
                rs_lg,
                sample_fraction=self.sample_fraction,
                max_prefixes_per_member=self.max_prefixes_per_member)
            collection = active.collect(
                skip_members=inference.passive_members,
                covered_prefixes=covered_prefixes)
            observations.extend(
                collection.policy_observations(self.interpreter))
            inference.active_members = collection.members_with_communities()
            inference.active_queries = collection.total_queries
            # The LG summary is authoritative connectivity data.
            inference.members |= collection.members
        else:
            for lg in third_party:
                collection = collect_from_third_party_lg(
                    ixp_name, lg, members, self.interpreter)
                observations.extend(interpret_raw_observations(
                    self.interpreter, ixp_name, collection.observations,
                    "third-party"))
                inference.active_members |= collection.members_with_communities()
                inference.active_queries += collection.total_queries

        inference.reachabilities = self._merge(ixp_name, observations,
                                               inference.members)
        inference.links = self._infer_links(
            ixp_name, inference.reachabilities, inference.members,
            require_reciprocity)
        return inference

    def _run_passive(
        self, passive_entries: Optional[Iterable[RibEntry]]
    ) -> Dict[str, List[PassiveObservation]]:
        if passive_entries is None:
            return {}
        passive = PassiveInference(self.interpreter, self.relationships)
        observations = passive.extract(passive_entries)
        by_ixp: Dict[str, List[PassiveObservation]] = {}
        for observation in observations:
            by_ixp.setdefault(observation.ixp_name, []).append(observation)
        return by_ixp

    def _merge(
        self,
        ixp_name: str,
        observations: Sequence[PolicyObservation],
        members: Set[int],
    ) -> Dict[int, MemberReachability]:
        by_member: Dict[int, List[PolicyObservation]] = {}
        for observation in observations:
            if observation.ixp_name != ixp_name:
                continue
            if members and observation.member_asn not in members:
                continue
            by_member.setdefault(observation.member_asn, []).append(observation)
        reachabilities: Dict[int, MemberReachability] = {}
        for member_asn, member_observations in by_member.items():
            merged = merge_observations(member_observations, members)
            if merged is not None:
                reachabilities[member_asn] = merged
        return reachabilities

    def _infer_links(
        self,
        ixp_name: str,
        reachabilities: Dict[int, MemberReachability],
        members: Set[int],
        require_reciprocity: bool,
    ) -> Tuple[Link, ...]:
        return tuple(sorted(infer_links(
            reachabilities, members,
            index=self._member_index(ixp_name, members),
            require_reciprocity=require_reciprocity)))



def identical(mine: MLPInferenceResult, theirs: MLPInferenceResult) -> bool:
    """Full bit-identity of two inference results: links, per-IXP link
    sets, Table 2 rows, member/provenance sets, reachability objects
    and query spend.  The one predicate the differential tests share:
    extend it here when results grow new fields."""
    if set(mine.per_ixp) != set(theirs.per_ixp):
        return False
    if mine.table2() != theirs.table2():
        return False
    return all(
        left.links == right.links
        and left.members == right.members
        and left.passive_members == right.passive_members
        and left.active_members == right.active_members
        and left.active_queries == right.active_queries
        and left.reachabilities == right.reachabilities
        for left, right in ((mine.per_ixp[name], theirs.per_ixp[name])
                            for name in mine.per_ixp))

def matrix_from_inferences(per_ixp: Mapping[str, IXPInference],
                           context=None) -> ReachabilityMatrix:
    """A :class:`ReachabilityMatrix` rebuilt from per-IXP inference
    objects (``built_by="result"``): one ALLOW row per covered member
    from its merged ``(mode, listed)`` policy, the provenance masks and
    the query spend.  *context* supplies cached per-IXP member indices
    when available.  Observation counts stay empty."""
    planes: Dict[str, ReachabilityPlane] = {}
    links: Dict[str, Tuple[Link, ...]] = {}
    for ixp_name in sorted(per_ixp):
        inference = per_ixp[ixp_name]
        if context is not None:
            index = context.member_index(ixp_name, inference.members)
        else:
            index = BitsetIndex(inference.members)
        plane = ReachabilityPlane(
            ixp_name=ixp_name,
            index=index,
            passive_members=frozenset(inference.passive_members),
            active_members=frozenset(inference.active_members),
            passive_mask=index.mask_of(inference.passive_members),
            active_mask=index.mask_of(inference.active_members),
            active_queries=inference.active_queries,
        )
        for asn in sorted(inference.reachabilities):
            reach = inference.reachabilities[asn]
            bit = index.bit_of.get(asn)
            if bit is None:
                continue
            plane.allow_rows[bit] = allow_mask_for(
                reach.mode, reach.listed, index, member_asn=asn)
            plane.policies[bit] = (reach.mode, reach.listed)
            plane.sources[bit] = frozenset(reach.sources)
            plane.prefixes_observed[bit] = reach.prefixes_observed
            plane.inconsistent[bit] = reach.inconsistent_prefixes
            plane.covered_mask |= 1 << bit
            if "third-party" in reach.sources:
                plane.third_party_mask |= 1 << bit
        planes[ixp_name] = plane
        links[ixp_name] = tuple(inference.links)
    return ReachabilityMatrix(
        planes, links_by_ixp=links,
        keys_by_ixp={name: link_keys_of(pairs)
                     for name, pairs in links.items()},
        built_by="result")


def object_engine(scenario, connectivity=None) -> ObjectInferenceEngine:
    """The oracle engine over *scenario*, built exactly like
    :meth:`~repro.scenarios.base.Scenario.make_engine` builds the
    production one."""
    production = scenario.make_engine(connectivity=connectivity)
    return ObjectInferenceEngine(
        registry=production.registry,
        rs_members=production.rs_members,
        mappers=production.interpreter.mappers,
        relationships=production.relationships,
        sample_fraction=production.sample_fraction,
        max_prefixes_per_member=production.max_prefixes_per_member,
        context=production.context,
    )


def object_inference(scenario, use_passive: bool = True,
                     use_active: bool = True,
                     require_reciprocity: bool = True,
                     connectivity=None) -> MLPInferenceResult:
    """:meth:`~repro.scenarios.base.Scenario.run_inference` (same
    signature) through the object oracle."""
    engine = object_engine(scenario, connectivity=connectivity)
    return engine.run(
        passive_entries=scenario.archive.clean_stable_entries()
        if use_passive else None,
        rs_looking_glasses=scenario.rs_looking_glasses if use_active else {},
        third_party_lgs=scenario.third_party_lgs if use_active else {},
        require_reciprocity=require_reciprocity,
    )


def run_object_inference(run) -> MLPInferenceResult:
    """The oracle's result for a :class:`~repro.pipeline.run.ScenarioRun`
    (the inference stage's inputs and options, object engine)."""
    options = run.inference_options
    return object_inference(run.artifact("scenario"),
                            use_passive=options.use_passive,
                            use_active=options.use_active,
                            require_reciprocity=options.require_reciprocity,
                            connectivity=run.artifact("connectivity"))


# -- the entry-list passive extraction -------------------------------------------


def extract_passive_planes(
    entries: Optional[Sequence[RibEntry]],
    interpreter: RSCommunityInterpreter,
    relationships: Mapping[Tuple[int, int], Relationship],
    prefixes: Interner,
    policies: PolicyTable,
    planes: Dict[str, ObservationPlane],
) -> None:
    """Scatter archived RIB entries into per-IXP observation planes, one
    entry at a time.

    Per distinct (AS path, community bag) the clean filter, IXP
    attribution, setter pin-pointing and policy interpretation run once
    (:func:`_passive_skeleton`); every further entry carrying the pair
    only appends an interned row.  Row content and order are identical
    to the object path's per-IXP observation lists.
    """
    if entries is None:
        return
    passive = PassiveInference(interpreter, relationships)
    # (path asns, community bag) -> None (filtered) or
    # (ixp name, setter ASN, policy id).
    skeletons: Dict[Tuple[Tuple[int, ...], FrozenSet], Optional[Tuple]] = {}
    # Identity layer over the value memo: columnar propagation shares
    # one ASPath/bag object per (origin, observer) across prefixes, and
    # the archive's RibEntryTable value-interns paths/bags so *every*
    # entry with the same path shares one object — the common repeat
    # resolves on two id() lookups without hashing the path tuple.
    # Safe because *entries* holds every keyed object alive for the
    # whole pass (ids cannot be reused).
    id_skeletons: Dict[Tuple[int, int], Optional[Tuple]] = {}
    for entry in entries:
        ident = (id(entry.as_path), id(entry.communities))
        skeleton = id_skeletons.get(ident, _MISS)
        if skeleton is _MISS:
            key = (entry.as_path.asns, entry.communities)
            skeleton = skeletons.get(key, _MISS)
            if skeleton is _MISS:
                skeleton = _passive_skeleton(
                    entry, interpreter, passive, policies)
                skeletons[key] = skeleton
            id_skeletons[ident] = skeleton
        if skeleton is None:
            continue
        ixp_name, setter, policy_id = skeleton
        plane = planes.get(ixp_name)
        if plane is None:
            plane = planes[ixp_name] = ObservationPlane(ixp_name=ixp_name)
        plane.rows.append((setter, prefixes.intern(entry.prefix),
                           policy_id, PASSIVE))
        plane.passive_members.add(setter)
        plane.covered_prefixes.setdefault(setter, set()).add(entry.prefix)


_MISS = object()


def _passive_skeleton(
    entry: RibEntry,
    interpreter: RSCommunityInterpreter,
    passive: PassiveInference,
    policies: PolicyTable,
) -> Optional[Tuple[str, int, int]]:
    """The prefix-independent outcome of the passive pipeline for one
    distinct (AS path, community bag) pair."""
    if not entry.is_clean():
        return None
    if not entry.communities:
        return None
    identification = interpreter.identify_unique_ixp(entry.communities)
    if identification is None:
        return None
    ixp_name = identification.ixp_name
    setter = passive.identify_setter(ixp_name, entry.as_path)
    if setter is None:
        return None
    rs_communities = interpreter.rs_communities_only(
        ixp_name, entry.communities)
    interpreted = interpreter.interpret_for_ixp(ixp_name, rs_communities)
    if interpreted is None:
        policy_id = policies.intern(*DEFAULT_POLICY)
    else:
        policy_id = policies.intern(interpreted.mode, interpreted.listed)
    return ixp_name, setter, policy_id

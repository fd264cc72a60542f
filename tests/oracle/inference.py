"""The per-IXP object inference engine, kept as the oracle.

Production inference (:class:`~repro.core.engine.MLPInferenceEngine`)
runs on the interned observation planes of :mod:`repro.core.planes`.
This module keeps the original object implementation of the same
pipeline: per IXP, the step functions of :mod:`tests.oracle.steps`
build one :class:`~tests.oracle.steps.PolicyObservation` per observed
(member, prefix) pair, merge them with
:func:`~tests.oracle.steps.merge_observations` and infer links with
:func:`~tests.oracle.steps.infer_links`, keeping one
:class:`ObjectIXPInference` record per IXP.  The differential suites
require the two engines to produce bit-identical results
(:func:`identical`): the production planes, read member by member,
against the oracle's records.  The oracle's result also carries a
:class:`~repro.runtime.reachmatrix.ReachabilityMatrix` whose planes are
built from its records with the integer-bitmask rule of
:mod:`tests.oracle.reachability` (:func:`matrix_from_inferences`,
``built_by "result"``); it has no observation counts, which only the
engine's planes record.

:func:`extract_passive_planes` is the entry-list oracle of the
production passive extraction (:func:`repro.core.planes.
extract_passive_planes`, which reads the archive's columns): the same
observation planes, policy table and prefix interner, built one
:class:`~repro.bgp.messages.RibEntry` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.messages import RibEntry
from repro.bgp.policy import Relationship
from repro.core.active import ActiveInference, collect_from_third_party_lg
from repro.core.communities import RSCommunityInterpreter
from repro.core.engine import MLPInferenceEngine
from repro.core.planes import (
    DEFAULT_POLICY,
    PASSIVE,
    ObservationPlane,
    PolicyTable,
)
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass
from repro.runtime.bitset import BitsetIndex
from repro.runtime.interning import Interner
from repro.runtime.reachmatrix import (
    Link,
    ReachabilityMatrix,
    ReachabilityPlane,
    link_keys_of,
)

from tests.oracle.observation import entry_is_clean
from tests.oracle.reachability import plane_columns
from tests.oracle.steps import (
    MemberReachability,
    PassiveInference,
    PassiveObservation,
    PolicyObservation,
    infer_links,
    interpret_raw_observations,
    merge_observations,
)


@dataclass
class ObjectIXPInference:
    """The object engine's per-IXP outcome (one row of Table 2).

    ``links`` is a tuple of sorted ``(a, b)`` pairs in ascending order —
    a stable, hashable sequence — so consumers never depend on set
    iteration order.
    """

    ixp_name: str
    members: Set[int] = field(default_factory=set)
    passive_members: Set[int] = field(default_factory=set)
    active_members: Set[int] = field(default_factory=set)
    reachabilities: Dict[int, MemberReachability] = field(default_factory=dict)
    links: Tuple[Link, ...] = ()
    active_queries: int = 0

    def table2_row(self, num_ixp_ases: Optional[int] = None,
                   has_lg: Optional[bool] = None) -> Dict[str, object]:
        """This IXP rendered as a row of the paper's Table 2."""
        return {
            "IXP": self.ixp_name,
            "LG": ("Y" if has_lg else "N") if has_lg is not None else "?",
            "ASes": num_ixp_ases if num_ixp_ases is not None else len(self.members),
            "RS": len(self.members),
            "Pasv": len(self.passive_members),
            "Active": len(self.active_members - self.passive_members),
            "Links": len(self.links),
        }


@dataclass
class ObjectInferenceResult:
    """The object engine's result: its per-IXP records and the matrix
    rebuilt from them."""

    per_ixp: Dict[str, ObjectIXPInference]
    matrix: ReachabilityMatrix

    def table2(self, ixp_ases: Optional[Mapping[str, int]] = None,
               ixp_has_lg: Optional[Mapping[str, bool]] = None) -> List[Dict[str, object]]:
        """The full Table 2 from the records, ordered by total IXP size."""
        ixp_ases = ixp_ases or {}
        ixp_has_lg = ixp_has_lg or {}
        rows = [
            inference.table2_row(ixp_ases.get(name), ixp_has_lg.get(name))
            for name, inference in self.per_ixp.items()
        ]
        rows.sort(key=lambda row: (-int(row["ASes"]), row["IXP"]))
        return rows


class ObjectInferenceEngine(MLPInferenceEngine):
    """The object-level inference pipeline (same constructor as the
    production engine)."""

    def run(
        self,
        passive_entries: Optional[Iterable[RibEntry]] = None,
        rs_looking_glasses: Optional[Mapping[str, RouteServerLookingGlass]] = None,
        third_party_lgs: Optional[Mapping[str, Sequence[ASLookingGlass]]] = None,
        require_reciprocity: bool = True,
    ) -> ObjectInferenceResult:
        rs_looking_glasses = dict(rs_looking_glasses or {})
        third_party_lgs = {name: list(lgs)
                           for name, lgs in (third_party_lgs or {}).items()}
        passive_by_ixp = self._run_passive(passive_entries)
        per_ixp: Dict[str, ObjectIXPInference] = {}
        # IXPs are processed in name order so run output (and any caches
        # populated along the way) is independent of mapping order.
        for ixp_name, members in sorted(self.rs_members.items()):
            per_ixp[ixp_name] = self._infer_ixp(
                ixp_name, members, passive_by_ixp.get(ixp_name, []),
                rs_looking_glasses.get(ixp_name),
                third_party_lgs.get(ixp_name, []), require_reciprocity)
        return ObjectInferenceResult(
            per_ixp=per_ixp, matrix=matrix_from_inferences(per_ixp))

    def _infer_ixp(
        self,
        ixp_name: str,
        members: Set[int],
        passive_observations: Sequence[PassiveObservation],
        rs_lg: Optional[RouteServerLookingGlass],
        third_party: Sequence[ASLookingGlass],
        require_reciprocity: bool,
    ) -> ObjectIXPInference:
        """One IXP's passive/active merge and link inference."""
        inference = ObjectIXPInference(ixp_name=ixp_name, members=set(members))
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
            collection = ActiveInference(rs_lg).collect(
                skip_members=inference.passive_members,
                covered_prefixes=covered_prefixes)
            observations.extend(interpret_raw_observations(
                self.interpreter, ixp_name, collection.observations,
                "active"))
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
            index=BitsetIndex(members),
            require_reciprocity=require_reciprocity)))



def ixp_records(result) -> Dict[str, ObjectIXPInference]:
    """Per-IXP records of an oracle or a production result.

    The oracle's records are its own, with ``reachabilities`` cut to
    the member universe (a plane only has bits for its members); a
    production result's are read off its planes, member by member:
    policy, sources and the prefix and inconsistency counts of every
    covered member, the member, passive and active sets, the query
    spend and the result's links.
    """
    if isinstance(result, ObjectInferenceResult):
        return {name: ObjectIXPInference(
                    ixp_name=name,
                    members=set(inference.members),
                    passive_members=set(inference.passive_members),
                    active_members=set(inference.active_members),
                    reachabilities={
                        asn: reach for asn, reach in
                        inference.reachabilities.items()
                        if asn in inference.members},
                    links=tuple(inference.links),
                    active_queries=inference.active_queries)
                for name, inference in result.per_ixp.items()}
    records = {}
    for name, plane in result.matrix.planes.items():
        universe = plane.index.universe
        prefixes, inconsistent = plane.counts[:, :2].T.tolist()
        records[name] = ObjectIXPInference(
            ixp_name=name,
            members=set(universe),
            passive_members=set(plane.passive_members),
            active_members=set(plane.active_members),
            reachabilities={
                universe[bit]: MemberReachability(
                    member_asn=universe[bit], ixp_name=name, mode=mode,
                    listed=listed, sources=plane.sources[bit],
                    prefixes_observed=prefixes[bit],
                    inconsistent_prefixes=inconsistent[bit])
                for bit, (mode, listed) in plane.policies.items()},
            links=result.matrix.links_of(name),
            active_queries=plane.active_queries)
    return records


def differences(mine, theirs) -> List[str]:
    """Every way two inference results (production or oracle, in any
    pairing) differ; empty means bit-identical.

    Compares Table 2, the per-IXP records of :func:`ixp_records` field
    by field, and each pair of planes' ``allow`` and ``masks`` columns
    and the prefix and inconsistency columns of ``counts``.  The one
    predicate the differential tests share: extend it here when results
    grow new fields."""
    left, right = ixp_records(mine), ixp_records(theirs)
    if set(left) != set(right):
        return [f"IXP sets differ: {sorted(left)} vs {sorted(right)}"]
    problems = []
    if mine.table2() != theirs.table2():
        problems.append("table2 differs")
    for name in sorted(left):
        a, b = left[name], right[name]
        problems.extend(
            f"{name}: {attribute} differs"
            for attribute in ("links", "members", "passive_members",
                              "active_members", "active_queries")
            if getattr(a, attribute) != getattr(b, attribute))
        problems.extend(
            f"{name}: member {asn} reachability differs"
            for asn in sorted(set(a.reachabilities) | set(b.reachabilities))
            if a.reachabilities.get(asn) != b.reachabilities.get(asn))
        plane, other = mine.matrix.planes[name], theirs.matrix.planes[name]
        problems.extend(
            f"{name}: plane {column} differs"
            for column, x, y in (
                ("allow", plane.allow, other.allow),
                ("masks", plane.masks, other.masks),
                ("counts", plane.counts[:, :2], other.counts[:, :2]))
            if not np.array_equal(x, y))
    return problems


def identical(mine, theirs) -> bool:
    """Full bit-identity of two inference results (:func:`differences`
    is empty)."""
    return not differences(mine, theirs)


def matrix_from_inferences(
        per_ixp: Mapping[str, ObjectIXPInference]) -> ReachabilityMatrix:
    """A :class:`ReachabilityMatrix` rebuilt from per-IXP inference
    records (``built_by="result"``): the columns from every covered
    member's merged ``(mode, listed)`` policy with the integer-bitmask
    rule (:func:`tests.oracle.reachability.plane_columns`), the
    provenance and the query spend.  Observation counts stay 0."""
    planes: Dict[str, ReachabilityPlane] = {}
    links: Dict[str, Tuple[Link, ...]] = {}
    for ixp_name in sorted(per_ixp):
        inference = per_ixp[ixp_name]
        index = BitsetIndex(inference.members)
        covered = {asn: reach for asn, reach in
                   sorted(inference.reachabilities.items())
                   if asn in index.bit_of}
        planes[ixp_name] = ReachabilityPlane(
            ixp_name=ixp_name,
            index=index,
            **plane_columns(index, covered, inference.passive_members,
                            inference.active_members),
            policies={index.bit_of[asn]: (reach.mode, reach.listed)
                      for asn, reach in covered.items()},
            sources={index.bit_of[asn]: frozenset(reach.sources)
                     for asn, reach in covered.items()},
            passive_members=frozenset(inference.passive_members),
            active_members=frozenset(inference.active_members),
            active_queries=inference.active_queries,
        )
        links[ixp_name] = tuple(inference.links)
    return ReachabilityMatrix(
        planes, links_by_ixp=links,
        keys_by_ixp={name: link_keys_of(pairs)
                     for name, pairs in links.items()},
        built_by="result")


def object_engine(scenario) -> ObjectInferenceEngine:
    """The oracle engine over *scenario*, built exactly like
    :meth:`~repro.scenarios.base.Scenario.make_engine` builds the
    production one."""
    production = scenario.make_engine()
    return ObjectInferenceEngine(
        registry=production.registry,
        rs_members=production.rs_members,
        mappers=production.interpreter.mappers,
        relationships=production.relationships,
    )


def object_inference(scenario, use_passive: bool = True,
                     use_active: bool = True,
                     require_reciprocity: bool = True) -> ObjectInferenceResult:
    """:meth:`~repro.scenarios.base.Scenario.run_inference` (same
    signature) through the object oracle, which collects afresh on
    every call."""
    engine = object_engine(scenario)
    return engine.run(
        passive_entries=scenario.archive.clean_stable_entries()
        if use_passive else None,
        rs_looking_glasses=scenario.rs_looking_glasses if use_active else {},
        third_party_lgs=scenario.third_party_lgs if use_active else {},
        require_reciprocity=require_reciprocity,
    )


def run_object_inference(run) -> ObjectInferenceResult:
    """The oracle's result for a :class:`~repro.pipeline.run.ScenarioRun`
    (the inference stage's inputs and options, object engine)."""
    options = run.inference_options
    return object_inference(run.artifact("scenario"),
                            use_passive=options.use_passive,
                            use_active=options.use_active,
                            require_reciprocity=options.require_reciprocity)


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
    if not entry_is_clean(entry):
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

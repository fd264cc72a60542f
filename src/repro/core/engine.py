"""The MLP inference engine: combine passive and active data, infer links.

:class:`MLPInferenceEngine` orchestrates the full pipeline of section 4
across any number of IXPs:

1. take the connectivity reports (route-server members per IXP);
2. extract RS communities passively from collector archives;
3. query route-server looking glasses (or third-party member looking
   glasses) for the members not covered passively;
4. merge all observations into per-member reachability sets N_a;
5. infer a p2p link for every pair of members with reciprocal ALLOW.

The result object keeps per-IXP detail (Table 2's columns) and records
the provenance of every member's reachability so the cost and
visibility analyses can be reproduced; the global link views live on
the :class:`~repro.runtime.reachmatrix.ReachabilityMatrix` it carries
(``result.matrix``), built from the same planes as the per-IXP links.

Steps 2-5 run on the interned observation planes of
:mod:`repro.core.planes`: observations become integer rows, members
with one distinct policy merge on ids (mixed-policy members fall back
to :func:`~repro.core.reachability.merge_observations`), and links come
out of the reciprocal ``M & M.T`` kernel over each IXP's ALLOW plane.
The test suite keeps the per-IXP object implementation of the same
steps as an oracle and checks this engine against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: An inferred MLP link: an ordered (lower ASN, higher ASN) pair.
Link = Tuple[int, int]

from repro.bgp.policy import Relationship
from repro.collectors.archive import StableEntries
from repro.core.active import ActiveInference, collect_from_third_party_lg
from repro.core.communities import RSCommunityInterpreter
from repro.core.planes import (
    ACTIVE,
    THIRD_PARTY,
    MergedPlane,
    ObservationPlane,
    PlaneCacheKey,
    PolicyTable,
    build_reachability_plane,
    extract_passive_planes,
    merge_rows,
    rows_from_raw_observations,
)
from repro.core.reachability import MemberReachability
from repro.ixp.community_schemes import SchemeRegistry
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass
from repro.runtime.bitset import BitsetIndex
from repro.runtime.context import PipelineContext
from repro.runtime.interning import Interner
from repro.runtime.reachmatrix import ReachabilityMatrix
from repro.topology.relationships import RelationshipMap


@dataclass
class IXPInference:
    """Per-IXP inference outcome (one row of Table 2).

    ``links`` is a tuple of sorted ``(a, b)`` pairs in ascending order —
    a stable, hashable sequence — so downstream consumers never depend
    on set iteration order.
    """

    ixp_name: str
    members: Set[int] = field(default_factory=set)
    passive_members: Set[int] = field(default_factory=set)
    active_members: Set[int] = field(default_factory=set)
    reachabilities: Dict[int, MemberReachability] = field(default_factory=dict)
    links: Tuple[Link, ...] = ()
    active_queries: int = 0
    #: memoised frozenset of ``links`` (treat the inference as immutable
    #: once the engine returns it).
    _link_set: Optional[FrozenSet[Link]] = field(
        default=None, repr=False, compare=False)

    @property
    def num_links(self) -> int:
        """Number of MLP links inferred at this IXP."""
        return len(self.links)

    def link_set(self) -> FrozenSet[Link]:
        """The links as a (memoised) frozenset, for O(1) membership."""
        if self._link_set is None:
            self._link_set = frozenset(self.links)
        return self._link_set

    def has_link(self, a: int, b: int) -> bool:
        """Whether the (unordered) pair was inferred at this IXP."""
        return (min(a, b), max(a, b)) in self.link_set()

    def provenance_of(self, member_asn: int) -> FrozenSet[str]:
        """Observation sources behind a member's reachability
        ("passive" / "active" / "third-party"; empty if uncovered)."""
        reach = self.reachabilities.get(member_asn)
        return frozenset(reach.sources) if reach is not None else frozenset()

    def covered_members(self) -> Tuple[int, ...]:
        """Members with a reconstructed reachability, in ascending ASN
        order (a stable tuple, never a set — consumers must not depend
        on set iteration order)."""
        return tuple(sorted(self.reachabilities))

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
            "Links": self.num_links,
        }


@dataclass
class MLPInferenceResult:
    """The combined result across all IXPs.

    ``per_ixp`` holds one :class:`IXPInference` per IXP; ``matrix`` is
    the :class:`~repro.runtime.reachmatrix.ReachabilityMatrix` built
    from the same planes, which answers every global link view (link
    set, per-IXP links, multi-IXP overlap, link provenance, peer
    counts).  Results are immutable once the engine returns them.
    """

    per_ixp: Dict[str, IXPInference]
    matrix: ReachabilityMatrix

    def identical_to(self, other: "MLPInferenceResult") -> bool:
        """Full bit-identity with *other*: links, per-IXP link sets,
        Table 2 rows, member/provenance sets, reachability objects and
        query spend.  This is the one authoritative predicate the
        differential tests share — extend it here, not in a caller,
        when results grow new fields."""
        if set(self.per_ixp) != set(other.per_ixp):
            return False
        if self.table2() != other.table2():
            return False
        for name in self.per_ixp:
            left, right = self.per_ixp[name], other.per_ixp[name]
            if (left.links != right.links
                    or left.members != right.members
                    or left.passive_members != right.passive_members
                    or left.active_members != right.active_members
                    or left.active_queries != right.active_queries
                    or left.covered_members() != right.covered_members()
                    or left.reachabilities != right.reachabilities):
                return False
        return True

    def table2(self, ixp_ases: Optional[Mapping[str, int]] = None,
               ixp_has_lg: Optional[Mapping[str, bool]] = None) -> List[Dict[str, object]]:
        """The full Table 2, ordered by total IXP size."""
        ixp_ases = ixp_ases or {}
        ixp_has_lg = ixp_has_lg or {}
        rows = [
            inference.table2_row(ixp_ases.get(name), ixp_has_lg.get(name))
            for name, inference in self.per_ixp.items()
        ]
        rows.sort(key=lambda row: (-int(row["ASes"]), row["IXP"]))
        return rows


class MLPInferenceEngine:
    """Run the full inference across a set of IXPs."""

    def __init__(
        self,
        registry: SchemeRegistry,
        rs_members: Mapping[str, Iterable[int]],
        mappers: Optional[Mapping[str, object]] = None,
        relationships: Optional[Mapping[Tuple[int, int], Relationship]] = None,
        sample_fraction: float = 0.10,
        max_prefixes_per_member: int = 100,
        context: Optional[PipelineContext] = None,
    ) -> None:
        self.registry = registry
        self.rs_members: Dict[str, Set[int]] = {
            name: set(members) for name, members in rs_members.items()}
        self.interpreter = RSCommunityInterpreter(
            registry, self.rs_members, mappers=mappers)
        self.relationships = RelationshipMap.of(relationships)
        self.sample_fraction = sample_fraction
        self.max_prefixes_per_member = max_prefixes_per_member
        #: Optional shared runtime context; when present its cached
        #: member bitset indices and observation-plane cache are reused
        #: across run() invocations.
        self.context = context

    # -- pipeline ---------------------------------------------------------------------

    def run(
        self,
        passive_entries: Optional[StableEntries] = None,
        rs_looking_glasses: Optional[Mapping[str, RouteServerLookingGlass]] = None,
        third_party_lgs: Optional[Mapping[str, Sequence[ASLookingGlass]]] = None,
        require_reciprocity: bool = True,
    ) -> MLPInferenceResult:
        """Run passive extraction, active collection and link inference.

        ``passive_entries`` is an archive's stable view
        (:meth:`~repro.collectors.archive.CollectorArchive.
        clean_stable_entries`); anything else raises ``TypeError``.
        ``require_reciprocity`` exposes the paper's reciprocity assumption
        as an ablation switch: when False, a single direction of ALLOW is
        enough to infer a link.

        The observation planes are merged once per collection identity
        (cached on the context, see :class:`~repro.core.planes.
        PlaneCacheKey`) and links come from the reciprocal ``M & M.T``
        kernel; ``require_reciprocity`` is applied downstream of the
        plane cache, so the ablation shares the collected planes.
        """
        if passive_entries is not None and \
                not isinstance(passive_entries, StableEntries):
            raise TypeError(
                "passive_entries must be a CollectorArchive stable view "
                "(clean_stable_entries()), not "
                f"{type(passive_entries).__name__}")
        rs_looking_glasses = dict(rs_looking_glasses or {})
        third_party_lgs = {name: list(lgs)
                           for name, lgs in (third_party_lgs or {}).items()}
        key = PlaneCacheKey(
            passive_entries=passive_entries,
            rs_looking_glasses=rs_looking_glasses,
            third_party_lgs=third_party_lgs,
            sample_fraction=self.sample_fraction,
            max_prefixes_per_member=self.max_prefixes_per_member,
            rs_members=self.rs_members,
            relationships=self.relationships,
            registry=self.registry,
            registry_version=self.registry.version,
            mappers=self.interpreter.mappers,
        )
        merged = None
        if self.context is not None:
            merged = self.context.cached_inference_planes(key)
        if merged is None:
            merged = self._build_merged_planes(
                passive_entries, rs_looking_glasses, third_party_lgs)
            if self.context is not None:
                self.context.store_inference_planes(key, merged)

        per_ixp = {}
        matrix_planes = {}
        links_by_ixp = {}
        keys_by_ixp = {}
        for ixp_name in sorted(self.rs_members):
            data = merged[ixp_name]
            links = data.plane.links(require_reciprocity)
            per_ixp[ixp_name] = IXPInference(
                ixp_name=ixp_name,
                members=set(data.members),
                passive_members=set(data.passive_members),
                active_members=set(data.active_members),
                reachabilities=dict(data.reachabilities),
                links=links,
                active_queries=data.active_queries,
            )
            matrix_planes[ixp_name] = data.plane
            links_by_ixp[ixp_name] = links
            keys_by_ixp[ixp_name] = data.plane.link_keys(require_reciprocity)
        return MLPInferenceResult(
            per_ixp=per_ixp,
            matrix=ReachabilityMatrix(matrix_planes,
                                      links_by_ixp=links_by_ixp,
                                      keys_by_ixp=keys_by_ixp,
                                      built_by="bitset"))

    def _build_merged_planes(
        self,
        passive_entries: Optional[StableEntries],
        rs_looking_glasses: Dict[str, RouteServerLookingGlass],
        third_party_lgs: Dict[str, List[ASLookingGlass]],
    ):
        """Collect and merge the per-IXP observation planes (the unit
        the context caches)."""
        prefixes = self.context.prefixes if self.context is not None \
            else Interner()
        policies = PolicyTable()
        observation_planes: Dict[str, ObservationPlane] = {}
        extract_passive_planes(passive_entries, self.interpreter,
                               self.relationships, prefixes, policies,
                               observation_planes)

        merged: Dict[str, MergedPlane] = {}
        for ixp_name, members in sorted(self.rs_members.items()):
            plane = observation_planes.get(ixp_name)
            if plane is None:
                plane = ObservationPlane(ixp_name=ixp_name)
            plane.members = set(members)
            rs_lg = rs_looking_glasses.get(ixp_name)
            if rs_lg is not None:
                active = ActiveInference(
                    rs_lg,
                    sample_fraction=self.sample_fraction,
                    max_prefixes_per_member=self.max_prefixes_per_member)
                collection = active.collect(
                    skip_members=plane.passive_members,
                    covered_prefixes=plane.covered_prefixes)
                plane.rows.extend(rows_from_raw_observations(
                    ixp_name, collection.observations, self.interpreter,
                    prefixes, policies, ACTIVE))
                plane.active_members = collection.members_with_communities()
                plane.active_queries = collection.total_queries
                plane.members |= collection.members
            else:
                for lg in third_party_lgs.get(ixp_name, []):
                    collection = collect_from_third_party_lg(
                        ixp_name, lg, members, self.interpreter)
                    plane.rows.extend(rows_from_raw_observations(
                        ixp_name, collection.observations, self.interpreter,
                        prefixes, policies, THIRD_PARTY))
                    plane.active_members |= \
                        collection.members_with_communities()
                    plane.active_queries += collection.total_queries
            reachabilities = merge_rows(
                ixp_name, plane.rows, plane.members, policies, prefixes)
            merged[ixp_name] = MergedPlane(
                ixp_name=ixp_name,
                members=plane.members,
                passive_members=set(plane.passive_members),
                active_members=set(plane.active_members),
                active_queries=plane.active_queries,
                reachabilities=reachabilities,
                plane=build_reachability_plane(
                    plane, reachabilities,
                    self._member_index(ixp_name, plane.members)),
            )
        return merged

    # -- helpers -----------------------------------------------------------------------

    def _member_index(self, ixp_name: str, members: Set[int]) -> BitsetIndex:
        if self.context is not None:
            return self.context.member_index(ixp_name, members)
        return BitsetIndex(members)

"""The MLP inference engine: combine passive and active data, infer links.

:class:`MLPInferenceEngine` orchestrates the full pipeline of section 4
across any number of IXPs:

1. take the connectivity reports (route-server members per IXP);
2. extract RS communities passively from collector archives;
3. query route-server looking glasses (or third-party member looking
   glasses) for the members not covered passively;
4. merge all observations into per-member reachability sets N_a;
5. infer a p2p link for every pair of members with reciprocal ALLOW.

The result is its :class:`~repro.runtime.reachmatrix.
ReachabilityMatrix` (``result.matrix``): one plane per IXP holding every
member's merged policy, its provenance and the query spend, which is
everything Table 2 and the cost and visibility analyses read, plus the
per-IXP links and every global link view.

Steps 2-5 run on the interned observation planes of
:mod:`repro.core.planes`: observations become integer rows, members
with one distinct policy merge on ids (mixed-policy members fall back
to :func:`~repro.core.reachability.merge_observations`), and links come
out of the reciprocal ``M & M.T`` kernel over each IXP's ALLOW plane.
The test suite keeps the per-IXP object implementation of the same
steps as an oracle and checks this engine against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.policy import Relationship
from repro.collectors.archive import StableEntries
from repro.core.active import ActiveInference, collect_from_third_party_lg
from repro.core.communities import RSCommunityInterpreter
from repro.core.planes import (
    ACTIVE,
    ObservationPlane,
    PlaneCacheKey,
    PolicyTable,
    THIRD_PARTY,
    build_reachability_plane,
    extract_passive_planes,
    merge_rows,
    rows_from_raw_observations,
)
from repro.ixp.community_schemes import SchemeRegistry
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass
from repro.runtime.bitset import BitsetIndex
from repro.runtime.context import PipelineContext
from repro.runtime.interning import Interner
from repro.runtime.reachmatrix import ReachabilityMatrix, ReachabilityPlane
from repro.topology.relationships import RelationshipMap


@dataclass
class MLPInferenceResult:
    """The combined result across all IXPs: its
    :class:`~repro.runtime.reachmatrix.ReachabilityMatrix`, whose planes
    hold every member's reconstructed policy and provenance and which
    answers every link view (per-IXP links, global link set, multi-IXP
    overlap, link provenance, peer counts).  Results are immutable once
    the engine returns them."""

    matrix: ReachabilityMatrix

    def table2(self, ixp_ases: Optional[Mapping[str, int]] = None,
               ixp_has_lg: Optional[Mapping[str, bool]] = None) -> List[Dict[str, object]]:
        """The full Table 2, one row per plane, ordered by total IXP
        size (RS members, when *ixp_ases* has no count for an IXP)."""
        ixp_ases = ixp_ases or {}
        ixp_has_lg = ixp_has_lg or {}
        rows = []
        for name, plane in self.matrix.planes.items():
            has_lg = ixp_has_lg.get(name)
            rows.append({
                "IXP": name,
                "LG": "?" if has_lg is None else ("Y" if has_lg else "N"),
                "ASes": ixp_ases.get(name, plane.num_members),
                "RS": plane.num_members,
                "Pasv": len(plane.passive_members),
                "Active": len(plane.active_members - plane.passive_members),
                "Links": len(self.matrix.link_keys_of(name)),
            })
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
        planes = None
        if self.context is not None:
            planes = self.context.cached_inference_planes(key)
        if planes is None:
            planes = self._build_planes(
                passive_entries, rs_looking_glasses, third_party_lgs)
            if self.context is not None:
                self.context.store_inference_planes(key, planes)
        return MLPInferenceResult(ReachabilityMatrix(
            planes,
            links_by_ixp={name: plane.links(require_reciprocity)
                          for name, plane in planes.items()},
            keys_by_ixp={name: plane.link_keys(require_reciprocity)
                         for name, plane in planes.items()},
            built_by="bitset"))

    def _build_planes(
        self,
        passive_entries: Optional[StableEntries],
        rs_looking_glasses: Dict[str, RouteServerLookingGlass],
        third_party_lgs: Dict[str, List[ASLookingGlass]],
    ) -> Dict[str, ReachabilityPlane]:
        """Collect, merge and pack the per-IXP planes in IXP-name order
        (the unit the context caches; every result shares them)."""
        prefixes = self.context.prefixes if self.context is not None \
            else Interner()
        policies = PolicyTable()
        observation_planes: Dict[str, ObservationPlane] = {}
        extract_passive_planes(passive_entries, self.interpreter,
                               self.relationships, prefixes, policies,
                               observation_planes)

        planes: Dict[str, ReachabilityPlane] = {}
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
            planes[ixp_name] = build_reachability_plane(
                plane,
                merge_rows(ixp_name, plane.rows, plane.members, policies,
                           prefixes),
                self._member_index(ixp_name, plane.members))
        return planes

    # -- helpers -----------------------------------------------------------------------

    def _member_index(self, ixp_name: str, members: Set[int]) -> BitsetIndex:
        if self.context is not None:
            return self.context.member_index(ixp_name, members)
        return BitsetIndex(members)

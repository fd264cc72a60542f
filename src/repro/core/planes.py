"""The inference data plane: interned observation planes.

The paper's steps map naturally onto one
:class:`~repro.core.reachability.PolicyObservation` object per observed
(member, prefix) pair, merged with per-member set arithmetic (the
public step functions of :mod:`repro.core.passive`,
:mod:`repro.core.active` and :mod:`repro.core.reachability`).  The
:class:`~repro.core.engine.MLPInferenceEngine` runs this module
instead: observations become
``(member, prefix id, policy id, source code)`` tuples over shared
interners, passive extraction reads the collector archive's columns
(IXP identification per distinct community bag, the archive's per-path
clean mask and setter pin-pointing per distinct (IXP, AS path), rows
scattered from arrays — collector archives repeat each path once per
exported prefix), and the
merged per-member policies become the columns of a
:class:`~repro.runtime.reachmatrix.ReachabilityPlane` (the packed ALLOW
rows, provenance masks and per-member counts), whose reciprocal
``M & M.T`` kernel emits the links.  The planes of one collection are
the unit :class:`PlaneCacheKey` caches on the pipeline context.

Bit-identity with the object-level steps is non-negotiable (the test
suite's object oracle checks it): the fast merge only takes the direct
route for members whose observations all carry one distinct policy (the
overwhelming majority); members with mixed policies fall back to the
*same* :func:`~repro.core.reachability.merge_observations` code, so
inconsistent-announcement handling can never drift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.policy import MODE_ALL_EXCEPT, Relationship
from repro.bgp.prefix import Prefix
from repro.collectors.archive import StableEntries
from repro.core.communities import RSCommunityInterpreter
from repro.core.passive import PassiveInference
from repro.core.reachability import (
    MemberReachability,
    PolicyObservation,
    merge_observations,
)
from repro.runtime.bitset import BitsetIndex
from repro.runtime.interning import Interner
from repro.runtime.reachmatrix import (
    COUNTS_DTYPE,
    ReachabilityPlane,
    allow_plane,
    member_bits,
    pack_bits,
)

#: Source codes of observation rows (indexes into SOURCE_NAMES).
SOURCE_NAMES = ("passive", "active", "third-party")
PASSIVE, ACTIVE, THIRD_PARTY = range(3)

#: One interned observation: (member ASN, prefix id, policy id, source).
Row = Tuple[int, int, int, int]

#: The default policy of an announcement without interpretable RS
#: communities: export to everyone.
DEFAULT_POLICY = (MODE_ALL_EXCEPT, frozenset())


class PolicyTable:
    """Interner of distinct ``(mode, listed)`` export policies."""

    __slots__ = ("_interner",)

    def __init__(self) -> None:
        self._interner = Interner()

    def intern(self, mode: str, listed: FrozenSet[int]) -> int:
        return self._interner.intern((mode, listed))

    def policy(self, policy_id: int) -> Tuple[str, FrozenSet[int]]:
        return self._interner.value_of(policy_id)

    def __len__(self) -> int:
        return len(self._interner)


@dataclass
class ObservationPlane:
    """One IXP's raw observation rows plus collection metadata."""

    ixp_name: str
    rows: List[Row] = field(default_factory=list)
    #: setters of passive observations (unfiltered, as the object steps).
    passive_members: Set[int] = field(default_factory=set)
    #: members whose communities active collection exposed.
    active_members: Set[int] = field(default_factory=set)
    #: per-setter prefixes covered passively (actual Prefix objects:
    #: the active query planner consumes them).
    covered_prefixes: Dict[int, Set[Prefix]] = field(default_factory=dict)
    #: member population after the LG summary was consulted.
    members: Set[int] = field(default_factory=set)
    active_queries: int = 0


@dataclass
class PlaneCacheKey:
    """Identity of one bitset-plane computation on a shared context.

    Two engine runs may reuse cached planes only when every collection
    input is the same: the passive stable view (by object identity — the
    archive memoises it), the looking glasses (by identity per LG *and*
    by a view signature capturing their membership/route-table sizes,
    so re-announcements between runs force recollection), the sampling
    knobs, and the interpretation inputs (members, relationships,
    registry, mappers, by value; a graph's relationship snapshot matches
    itself by identity).  ``matches`` errs on the side of recomputation.
    """

    passive_entries: Optional[StableEntries]
    rs_looking_glasses: Mapping[str, object]
    third_party_lgs: Mapping[str, Sequence[object]]
    sample_fraction: float
    max_prefixes_per_member: int
    rs_members: Mapping[str, Set[int]]
    relationships: Mapping[Tuple[int, int], Relationship]
    registry: object
    registry_version: int
    mappers: Mapping[str, object]
    lg_signature: Tuple = ()

    def __post_init__(self) -> None:
        if not self.lg_signature:
            self.lg_signature = lg_view_signature(
                self.rs_looking_glasses, self.third_party_lgs)

    def matches(self, other: "PlaneCacheKey") -> bool:
        if self.passive_entries is None or other.passive_entries is None:
            if (self.passive_entries is None) != (other.passive_entries is None):
                return False
        elif self.passive_entries is not other.passive_entries:
            return False
        return (self.rs_looking_glasses == other.rs_looking_glasses
                and self.third_party_lgs == other.third_party_lgs
                and self.lg_signature == other.lg_signature
                and self.sample_fraction == other.sample_fraction
                and self.max_prefixes_per_member == other.max_prefixes_per_member
                and self.rs_members == other.rs_members
                and self.registry is other.registry
                and self.registry_version == other.registry_version
                and self.mappers == other.mappers
                and (self.relationships is other.relationships
                     or self.relationships == other.relationships))


def lg_view_signature(
    rs_looking_glasses: Mapping[str, object],
    third_party_lgs: Mapping[str, Sequence[object]],
) -> Tuple:
    """A cheap signature of the looking glasses' current views.

    Captures each route server's and member LG's mutation counter
    (``RouteServer.version`` / ``ASLookingGlass.version``), so *any*
    membership/RIB/view change between runs on one scenario — including
    in-place re-announcements that leave route counts unchanged —
    invalidates the cached planes (LG objects compare by identity,
    which alone cannot see such mutations).
    """
    rs_parts = tuple(
        (name, rs_looking_glasses[name].route_server.version)
        for name in sorted(rs_looking_glasses))
    third_parts = tuple(
        (name, tuple(lg.version for lg in third_party_lgs[name]))
        for name in sorted(third_party_lgs))
    return (rs_parts, third_parts)


# -- passive extraction --------------------------------------------------------


def extract_passive_planes(
    entries: Optional[StableEntries],
    interpreter: RSCommunityInterpreter,
    relationships: Mapping[Tuple[int, int], Relationship],
    prefixes: Interner,
    policies: PolicyTable,
    planes: Dict[str, ObservationPlane],
) -> None:
    """Scatter an archive's stable rows into per-IXP observation planes.

    Fuses ``PassiveInference.extract`` + ``policy_observations`` over
    the archive's columns at the view's rows, without materialising a
    :class:`~repro.bgp.messages.RibEntry`: IXP identification runs once
    per distinct community bag, setter pin-pointing once per distinct
    (IXP, AS path) whose path passes the archive's clean mask
    (:meth:`~repro.collectors.archive.RibEntryTable.clean_paths`),
    policy interpretation once per bag that reaches a surviving row,
    and the surviving rows scatter from arrays.  Prefixes and policies are interned in
    first-surviving-row order, so the interners and every plane's rows
    (content and order) equal the per-entry pipeline's.
    """
    if entries is None or not len(entries):
        return
    table = entries.table
    table_prefixes, path_ids, bag_ids = table.columns_at(entries.rows)

    # The IXP each distinct bag identifies (-1: empty or unattributable).
    bags, bag_of_row = np.unique(bag_ids, return_inverse=True)
    ixp_names: List[str] = []
    ixp_codes: Dict[str, int] = {}
    bag_ixp = np.full(len(bags), -1, dtype=np.int64)
    for position, bag_id in enumerate(bags.tolist()):
        communities = table.bags[bag_id]
        if not communities:
            continue
        identification = interpreter.identify_unique_ixp(communities)
        if identification is None:
            continue
        name = identification.ixp_name
        if name not in ixp_codes:
            ixp_codes[name] = len(ixp_names)
            ixp_names.append(name)
        bag_ixp[position] = ixp_codes[name]
    row_ixp = bag_ixp[bag_of_row]
    attributed = np.flatnonzero(row_ixp >= 0)

    # The setter per distinct (IXP, path) (-1: dirty path or no setter).
    num_paths = table.num_paths
    keys, key_of_row = np.unique(
        row_ixp[attributed] * num_paths + path_ids[attributed],
        return_inverse=True)
    passive = PassiveInference(interpreter, relationships)
    key_setter = np.full(len(keys), -1, dtype=np.int64)
    clean = np.flatnonzero(table.clean_paths()[keys % num_paths])
    for position, key in zip(clean.tolist(), keys[clean].tolist()):
        code, path_id = divmod(key, num_paths)
        setter = passive.identify_setter(ixp_names[code], table.path(path_id))
        if setter is not None:
            key_setter[position] = setter
    row_setter = key_setter[key_of_row]
    survivors = attributed[row_setter >= 0]
    setters = row_setter[row_setter >= 0]

    # Policies per surviving bag and prefixes, in first-row order.
    survivor_bags = bag_of_row[survivors]
    bag_policy = np.zeros(len(bags), dtype=np.int64)
    for position in _first_seen(survivor_bags):
        ixp_name = ixp_names[bag_ixp[position]]
        rs_communities = interpreter.rs_communities_only(
            ixp_name, table.bags[bags[position]])
        interpreted = interpreter.interpret_for_ixp(ixp_name, rs_communities)
        if interpreted is None:
            bag_policy[position] = policies.intern(*DEFAULT_POLICY)
        else:
            bag_policy[position] = policies.intern(interpreted.mode,
                                                   interpreted.listed)
    policy_ids = bag_policy[survivor_bags]
    table_prefixes = table_prefixes[survivors]
    prefix_of = np.zeros(len(table.prefixes), dtype=np.int64)
    for prefix_id in _first_seen(table_prefixes):
        prefix_of[prefix_id] = prefixes.intern(table.prefixes[prefix_id])
    prefix_ids = prefix_of[table_prefixes]

    # Scatter the rows, plane by plane in first-row order.
    survivor_ixps = row_ixp[survivors]
    num_prefixes = len(table.prefixes)
    for code in _first_seen(survivor_ixps):
        ixp_name = ixp_names[code]
        in_ixp = survivor_ixps == code
        plane_setters = setters[in_ixp]
        plane = planes.get(ixp_name)
        if plane is None:
            plane = planes[ixp_name] = ObservationPlane(ixp_name=ixp_name)
        plane.rows.extend(zip(plane_setters.tolist(),
                              prefix_ids[in_ixp].tolist(),
                              policy_ids[in_ixp].tolist(),
                              repeat(PASSIVE)))
        plane.passive_members.update(plane_setters.tolist())
        covered = plane.covered_prefixes
        for pair in _first_seen(plane_setters * num_prefixes
                                + table_prefixes[in_ixp]):
            setter, prefix_id = divmod(pair, num_prefixes)
            covered.setdefault(setter, set()).add(table.prefixes[prefix_id])


def _first_seen(values: np.ndarray) -> List[int]:
    """The distinct *values* in order of first occurrence."""
    distinct, first = np.unique(values, return_index=True)
    return distinct[np.argsort(first)].tolist()


def rows_from_raw_observations(
    ixp_name: str,
    observations: Mapping[int, Sequence[Tuple[Prefix, FrozenSet]]],
    interpreter: RSCommunityInterpreter,
    prefixes: Interner,
    policies: PolicyTable,
    source: int,
) -> List[Row]:
    """Interned rows for an active/third-party raw collection, in the
    same member/prefix order as ``interpret_raw_observations``."""
    rows: List[Row] = []
    for member_asn, entries in observations.items():
        for prefix, communities in entries:
            interpreted = interpreter.interpret_for_ixp(ixp_name, communities)
            if interpreted is None:
                policy_id = policies.intern(*DEFAULT_POLICY)
            else:
                policy_id = policies.intern(
                    interpreted.mode, interpreted.listed)
            rows.append((member_asn, prefixes.intern(prefix),
                         policy_id, source))
    return rows


# -- merge ---------------------------------------------------------------------


def merge_rows(
    ixp_name: str,
    rows: Sequence[Row],
    members: Set[int],
    policies: PolicyTable,
    prefixes: Interner,
) -> Dict[int, MemberReachability]:
    """Merge interned observation rows into per-member reachabilities.

    Equivalent to grouping ``PolicyObservation`` objects by member and
    calling :func:`merge_observations` per member — and literally *is*
    that for members with more than one distinct policy; the single
    policy fast path skips object materialisation entirely.
    """
    grouped: Dict[int, List[Row]] = {}
    for row in rows:
        member_asn = row[0]
        if members and member_asn not in members:
            continue
        grouped.setdefault(member_asn, []).append(row)

    reachabilities: Dict[int, MemberReachability] = {}
    for member_asn, member_rows in grouped.items():
        policy_ids = {row[2] for row in member_rows}
        if len(policy_ids) == 1:
            mode, listed = policies.policy(next(iter(policy_ids)))
            prefix_ids = {row[1] for row in member_rows if row[1] is not None}
            reachabilities[member_asn] = MemberReachability(
                member_asn=member_asn,
                ixp_name=ixp_name,
                mode=mode,
                listed=listed,
                sources=frozenset(SOURCE_NAMES[row[3]] for row in member_rows),
                prefixes_observed=(len(prefix_ids) if prefix_ids
                                   else len(member_rows)),
                inconsistent_prefixes=0,
            )
            continue
        # Mixed policies (the <0.5% inconsistency tail): rebuild the
        # observation objects and run the reference merge.
        observations = []
        for asn, prefix_id, policy_id, source in member_rows:
            mode, listed = policies.policy(policy_id)
            observations.append(PolicyObservation(
                member_asn=asn, ixp_name=ixp_name,
                prefix=(prefixes.value_of(prefix_id)
                        if prefix_id is not None else None),
                mode=mode, listed=listed,
                source=SOURCE_NAMES[source]))
        merged = merge_observations(observations, members)
        if merged is not None:
            reachabilities[member_asn] = merged
    return reachabilities


# -- plane assembly ------------------------------------------------------------


def build_reachability_plane(
    observation_plane: ObservationPlane,
    reachabilities: Dict[int, MemberReachability],
    index: BitsetIndex,
) -> ReachabilityPlane:
    """The read-only columns and metadata of one IXP's plane: merged
    reachabilities of members in *index* (others are dropped), the
    observation plane's provenance sets and its rows' per-member
    observation counts."""
    policies: Dict[int, Tuple[str, FrozenSet[int]]] = {}
    sources: Dict[int, FrozenSet[str]] = {}
    counts = np.full((len(index), 3), -1, dtype=COUNTS_DTYPE)
    counts[:, 2] = 0
    for asn, reach in reachabilities.items():
        bit = index.bit_of.get(asn)
        if bit is None:
            continue
        policies[bit] = (reach.mode, reach.listed)
        sources[bit] = frozenset(reach.sources)
        counts[bit, :2] = reach.prefixes_observed, reach.inconsistent_prefixes
    for asn, observed in Counter(
            row[0] for row in observation_plane.rows).items():
        bit = index.bit_of.get(asn)
        if bit is not None:
            counts[bit, 2] = observed
    covered = np.zeros(len(index), dtype=bool)
    covered[list(policies)] = True
    third_party = np.zeros(len(index), dtype=bool)
    third_party[[bit for bit, names in sources.items()
                 if "third-party" in names]] = True
    masks = pack_bits(np.stack([
        covered,
        member_bits(index, observation_plane.passive_members),
        member_bits(index, observation_plane.active_members),
        third_party]))
    allow = allow_plane(policies, index)
    for column in (allow, masks, counts):
        column.flags.writeable = False
    return ReachabilityPlane(
        ixp_name=observation_plane.ixp_name,
        index=index,
        allow=allow,
        masks=masks,
        counts=counts,
        policies=policies,
        sources=sources,
        passive_members=frozenset(observation_plane.passive_members),
        active_members=frozenset(observation_plane.active_members),
        active_queries=observation_plane.active_queries,
    )

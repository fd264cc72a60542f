"""The inference data plane: interned observation planes.

The engine runs steps 2-5 of the paper on integer rows:
observations become ``(member, prefix id, policy id, source code)``
tuples over shared interners, passive extraction reads the collector
archive's columns (IXP identification per distinct community bag, the
archive's per-path clean mask and setter pin-pointing per distinct
(IXP, AS path), rows scattered from arrays — collector archives repeat
each path once per exported prefix), every member's rows merge on
policy ids with the one rule of step 4 (:func:`merge_rows`), and the
merged per-member policies become the columns of a
:class:`~repro.runtime.reachmatrix.ReachabilityPlane` (the packed ALLOW
rows, provenance masks and per-member counts), whose reciprocal
``M & M.T`` kernel emits the links.

The test suite keeps the object version of the same steps (one policy
observation per observed (member, prefix) pair, merged with set
arithmetic) as its oracle and requires bit-identity with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT, Relationship
from repro.bgp.prefix import Prefix
from repro.collectors.archive import StableEntries
from repro.core.communities import RSCommunityInterpreter
from repro.core.passive import identify_setter
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

#: An export policy: its mode and the listed member ASNs.
Policy = Tuple[str, FrozenSet[int]]

#: One member's merged step-4 outcome: its N_a policy, the names of its
#: observation sources, its distinct observed prefixes and the number
#: of prefixes announced with a policy other than the majority's.
Merged = Tuple[Policy, FrozenSet[str], int, int]

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

    def policy(self, policy_id: int) -> Policy:
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

    Runs the passive pipeline over the archive's columns at the view's
    rows, without materialising a
    :class:`~repro.bgp.messages.RibEntry`: IXP identification runs once
    per distinct community bag, setter pin-pointing
    (:func:`~repro.core.passive.identify_setter`) once per distinct
    (IXP, AS path) whose path passes the archive's clean mask
    (:meth:`~repro.collectors.archive.RibEntryTable.clean_paths`),
    policy interpretation once per bag that reaches a surviving row,
    and the surviving rows scatter from arrays.  Prefixes and policies
    are interned in first-surviving-row order, so the interners and
    every plane's rows (content and order) equal the per-entry
    pipeline's.
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
    key_setter = np.full(len(keys), -1, dtype=np.int64)
    clean = np.flatnonzero(table.clean_paths()[keys % num_paths])
    for position, key in zip(clean.tolist(), keys[clean].tolist()):
        code, path_id = divmod(key, num_paths)
        setter = identify_setter(
            interpreter.rs_members.get(ixp_names[code], set()),
            table.path(path_id), relationships)
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
    """Interned rows for an active/third-party raw collection, member by
    member and prefix by prefix in the collection's order (an
    announcement without RS communities carries :data:`DEFAULT_POLICY`)."""
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
    rows: Sequence[Row],
    members: Set[int],
    policies: PolicyTable,
) -> Dict[int, Merged]:
    """Merge interned observation rows into every member's N_a (step 4),
    in first-row order; rows of ASNs outside a non-empty *members* are
    dropped.

    N_a is the intersection of the member's per-prefix allowed sets,
    taken over its distinct policy ids: one policy is N_a itself;
    all-except policies merge to the union of their excludes;
    none-except policies to the intersection of their includes; mixed
    modes to the explicit allowed set over *members* (the member
    itself excluded), in none-except form.  A prefix is inconsistent
    when its row's policy is not the member's most common one.
    """
    grouped: Dict[int, List[Row]] = {}
    for row in rows:
        member_asn = row[0]
        if members and member_asn not in members:
            continue
        grouped.setdefault(member_asn, []).append(row)

    merged: Dict[int, Merged] = {}
    for member_asn, member_rows in grouped.items():
        per_policy = Counter(row[2] for row in member_rows)
        distinct = [policies.policy(policy_id) for policy_id in per_policy]
        prefix_ids = {row[1] for row in member_rows}
        merged[member_asn] = (
            _merge_policies(member_asn, distinct, members),
            frozenset(SOURCE_NAMES[row[3]] for row in member_rows),
            len(prefix_ids),
            len(member_rows) - max(per_policy.values()),
        )
    return merged


def _merge_policies(member_asn: int, distinct: Sequence[Policy],
                    members: Set[int]) -> Policy:
    """N_a of one member from its distinct per-prefix policies."""
    if len(distinct) == 1:
        return distinct[0]
    modes = {mode for mode, _ in distinct}
    if modes == {MODE_ALL_EXCEPT}:
        # The intersection of (ARS - E_p) is ARS - union(E_p).
        return MODE_ALL_EXCEPT, frozenset().union(
            *(listed for _, listed in distinct))
    if modes == {MODE_NONE_EXCEPT}:
        return MODE_NONE_EXCEPT, frozenset.intersection(
            *(listed for _, listed in distinct))
    allowed = set(members)
    allowed.discard(member_asn)
    for mode, listed in distinct:
        if mode == MODE_ALL_EXCEPT:
            allowed -= listed
        else:
            allowed &= listed
    return MODE_NONE_EXCEPT, frozenset(allowed)


# -- plane assembly ------------------------------------------------------------


def build_reachability_plane(
    observation_plane: ObservationPlane,
    merged: Mapping[int, Merged],
    index: BitsetIndex,
) -> ReachabilityPlane:
    """The read-only columns and metadata of one IXP's plane: the
    :func:`merge_rows` outcome of members in *index* (others are
    dropped), the observation plane's provenance sets and its rows'
    per-member observation counts."""
    policies: Dict[int, Policy] = {}
    sources: Dict[int, FrozenSet[str]] = {}
    counts = np.full((len(index), 3), -1, dtype=COUNTS_DTYPE)
    counts[:, 2] = 0
    for asn, (policy, names, prefixes, inconsistent) in merged.items():
        bit = index.bit_of.get(asn)
        if bit is None:
            continue
        policies[bit] = policy
        sources[bit] = names
        counts[bit, :2] = prefixes, inconsistent
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

"""Object-level references for the reachability matrix.

Production answers reciprocal-ALLOW links, export openness (figure 11)
and repeller counts (figure 13) from a
:class:`~repro.runtime.reachmatrix.ReachabilityMatrix` whose planes are
packed uint64 columns.  This module keeps the walks they replaced:

* the integer-bitmask rule — one Python integer per member set over a
  :class:`~repro.runtime.bitset.BitsetIndex` (:func:`mask_of`,
  :func:`full_mask`, :func:`iter_bits`), N_a as a mask
  (:func:`allow_mask_for`) and the packing to and from the artifact's
  words (:func:`pack_mask`, :func:`unpack_mask`, :func:`pack_rows`):
  the reference for ``reachmatrix.allow_plane``, ``pack_bits`` and
  ``unpack_plane``, and what the oracle's planes are built with
  (``tests/oracle/inference.py:matrix_from_inferences``);
* :func:`reciprocal_pairs` — the integer-bitmask reciprocity kernel
  (transpose the masks bit by bit, AND or OR per row), the reference
  for the packed ``M & M.T`` kernel ``reachmatrix.reciprocal_links``,
  ``ReachabilityPlane.links`` and ``link_keys``;
* :func:`link_views` — the matrix's global link views by set union,
  sort and per-link walks, the reference for the key-derived
  ``all_links``, ``multi_ixp_links``, ``link_ixps`` and
  ``peer_counts``; :func:`matrix_differences` diffs a matrix against
  both references;
* :func:`served_pairs` — a route server's ground-truth multilateral
  pairs (both directions served for at least one prefix each), from
  its RIB and export filters;
* :func:`export_openness_by_policy` — figure 11 over the per-member
  ``MemberReachability`` objects, the reference for
  ``PolicyAnalysis.export_openness_from_matrix``;
* :func:`repeller_report` — figure 13's EXCLUDE counting over the same
  objects, the reference for ``RepellerAnalysis.analyse_matrix``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.repellers import RepellerReport
from repro.bgp.policy import MODE_ALL_EXCEPT
from repro.core.reachability import MemberReachability
from repro.registries.peeringdb import PeeringDB
from repro.runtime.bitset import BitsetIndex
from repro.runtime.reachmatrix import ReachabilityPlane, link_keys_of
from repro.topology.as_graph import PeeringPolicy

Link = Tuple[int, int]

#: The artifact's packed-word dtype (64-bit little-endian words).
WORD_DTYPE = "<u8"


# -- the integer-bitmask rule --------------------------------------------------


def mask_of(index: BitsetIndex, values: Iterable[int]) -> int:
    """Bitmask of the given values over *index* (unknown values are
    ignored)."""
    mask = 0
    for value in values:
        bit = index.bit_of.get(value)
        if bit is not None:
            mask |= 1 << bit
    return mask


def full_mask(index: BitsetIndex) -> int:
    """The bitmask of every member of *index*."""
    return (1 << len(index)) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def allow_mask_for(mode: str, listed: Iterable[int], index: BitsetIndex,
                   member_asn: Optional[int] = None) -> int:
    """N_a as a bitmask over *index* for a merged (mode, listed) policy.

    Bit *i* is set iff the policy allows ``index.universe[i]``: listed
    values unknown to the index are ignored, and *member_asn*'s own bit
    is always cleared.
    """
    listed_mask = mask_of(index, listed)
    if mode == MODE_ALL_EXCEPT:
        mask = full_mask(index) & ~listed_mask
    else:
        mask = listed_mask
    if member_asn is not None:
        own_bit = index.bit_of.get(member_asn)
        if own_bit is not None:
            mask &= ~(1 << own_bit)
    return mask


def words_for(size: int) -> int:
    """Words per packed row for a *size*-member universe (>= 1)."""
    return max(1, (size + 63) // 64)


def pack_mask(mask: int, size: int) -> np.ndarray:
    """One integer bitmask as a ``(words,)`` packed row."""
    return np.frombuffer(mask.to_bytes(words_for(size) * 8, "little"),
                         dtype=WORD_DTYPE).copy()


def unpack_mask(row) -> int:
    """The integer bitmask of one packed row (inverse of
    :func:`pack_mask`)."""
    return int.from_bytes(np.ascontiguousarray(row).tobytes(), "little")


def pack_rows(rows: Mapping[int, int], size: int) -> np.ndarray:
    """Integer bitmask rows (bit -> mask) as a packed ``(size, words)``
    plane; rows without an entry pack as all-zero words."""
    packed = np.zeros((size, words_for(size)), dtype=WORD_DTYPE)
    for bit, mask in rows.items():
        packed[bit] = pack_mask(mask, size)
    return packed


def integer_rows(packed) -> Dict[int, int]:
    """The nonzero rows of a packed plane as integer bitmasks."""
    rows = {bit: unpack_mask(row) for bit, row in enumerate(packed)}
    return {bit: mask for bit, mask in rows.items() if mask}


def plane_columns(index: BitsetIndex,
                  reachabilities: Mapping[int, MemberReachability],
                  passive_members: Iterable[int],
                  active_members: Iterable[int]) -> Dict[str, np.ndarray]:
    """The ``allow``, ``masks`` and ``counts`` columns of a plane over
    *index*, built member by member with the integer rule (the
    observation-count column stays 0: objects do not record it)."""
    size = len(index)
    rows: Dict[int, int] = {}
    counts = np.full((size, 3), -1, dtype="<i8")
    counts[:, 2] = 0
    covered = third_party = 0
    for asn, reach in reachabilities.items():
        bit = index.bit_of.get(asn)
        if bit is None:
            continue
        rows[bit] = allow_mask_for(reach.mode, reach.listed, index,
                                   member_asn=asn)
        counts[bit, 0] = reach.prefixes_observed
        counts[bit, 1] = reach.inconsistent_prefixes
        covered |= 1 << bit
        if "third-party" in reach.sources:
            third_party |= 1 << bit
    masks = np.stack([pack_mask(mask, size) for mask in (
        covered, mask_of(index, passive_members),
        mask_of(index, active_members), third_party)])
    return {"allow": pack_rows(rows, size), "masks": masks,
            "counts": counts}


def plane_of_rows(ixp_name: str, universe: Iterable[int],
                  rows: Optional[Mapping[int, int]] = None
                  ) -> ReachabilityPlane:
    """A hand-built plane over *universe* whose ALLOW rows are the given
    integer masks (bit -> mask): those bits are covered, with no
    policies, provenance or counts."""
    index = BitsetIndex(universe)
    size = len(index)
    rows = dict(rows or {})
    counts = np.full((size, 3), -1, dtype="<i8")
    counts[:, 2] = 0
    masks = np.zeros((4, words_for(size)), dtype=WORD_DTYPE)
    masks[0] = pack_mask(sum(1 << bit for bit in rows), size)
    return ReachabilityPlane(ixp_name=ixp_name, index=index,
                             allow=pack_rows(rows, size), masks=masks,
                             counts=counts, policies={}, sources={},
                             passive_members=frozenset(),
                             active_members=frozenset(), active_queries=0)


def reciprocal_pairs(
    masks: Dict[int, int],
    universe: Tuple[int, ...],
    require_reciprocity: bool = True,
) -> set:
    """The sorted value pairs whose ALLOW masks agree.

    *masks* maps bit position -> outgoing mask ("bit *i* allows bit
    *j*"); a missing entry means "allows nobody".  With
    ``require_reciprocity`` a pair needs both directions, otherwise one
    direction suffices.
    """
    allowed_by = [0] * len(universe)
    for bit, mask in masks.items():
        own = 1 << bit
        for other in iter_bits(mask):
            allowed_by[other] |= own

    pairs = set()
    for bit, value in enumerate(universe):
        outgoing = masks.get(bit, 0)
        if require_reciprocity:
            mutual = outgoing & allowed_by[bit]
        else:
            mutual = outgoing | allowed_by[bit]
        lower = mutual & ((1 << bit) - 1)
        for other in iter_bits(lower):
            pairs.add((universe[other], value))
    return pairs


def link_views(links_by_ixp: Mapping[str, Sequence[Link]]
               ) -> Dict[str, object]:
    """``all_links``, ``multi_ixp_links``, ``link_ixps`` and
    ``peer_counts`` of per-IXP link tuples, the way the matrix built
    them before link keys: a set union and a sort, and walks over every
    link."""
    merged: set = set()
    for links in links_by_ixp.values():
        merged.update(links)
    all_links = tuple(sorted(merged))
    provenance: Dict[Link, List[str]] = {}
    for name in sorted(links_by_ixp):
        for link in links_by_ixp[name]:
            provenance.setdefault(link, []).append(name)
    link_ixps = {link: tuple(names) for link, names in provenance.items()}
    counts: Dict[int, int] = {}
    for a, b in all_links:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    return {
        "all_links": all_links,
        "multi_ixp_links": tuple(sorted(
            link for link, names in link_ixps.items() if len(names) > 1)),
        "link_ixps": link_ixps,
        "peer_counts": {asn: counts[asn] for asn in sorted(counts)},
    }


def matrix_differences(matrix) -> List[str]:
    """Every link view of *matrix* that disagrees with the references
    (empty means exact): the global views against :func:`link_views`
    of its per-IXP links (``peer_counts`` in order too), the keys row
    for row against the pairs, and each plane's links and keys under
    both reciprocity flags against :func:`reciprocal_pairs` over its
    integer rows."""
    problems: List[str] = []
    views = link_views(matrix.links_by_ixp())
    for name in ("all_links", "multi_ixp_links", "link_ixps"):
        if getattr(matrix, name)() != views[name]:
            problems.append(f"{name} differs")
    if list(matrix.peer_counts().items()) != \
            list(views["peer_counts"].items()):
        problems.append("peer_counts differs")
    if not np.array_equal(matrix.all_link_keys(),
                          link_keys_of(views["all_links"])):
        problems.append("all_link_keys differs")
    for ixp, links in sorted(matrix.links_by_ixp().items()):
        if not np.array_equal(matrix.link_keys_of(ixp), link_keys_of(links)):
            problems.append(f"{ixp}: link keys differ from its links")
    for ixp, plane in sorted(matrix.planes.items()):
        rows = integer_rows(plane.allow)
        for flag in (True, False):
            expected = tuple(sorted(reciprocal_pairs(
                rows, plane.index.universe, flag)))
            if plane.links(flag) != expected:
                problems.append(f"plane {ixp} links({flag}) differ")
            if not np.array_equal(plane.link_keys(flag),
                                  link_keys_of(expected)):
                problems.append(f"plane {ixp} link_keys({flag}) differ")
    return problems


def served_pairs(route_server) -> Set[Tuple[int, int]]:
    """The (a, b) pairs *route_server* serves in both directions, for
    at least one prefix each: every member's export masks OR-ed over
    its announcements, then the reciprocal kernel."""
    index = BitsetIndex(route_server.members())
    allowed: Dict[int, int] = {}
    for prefix in route_server.prefixes():
        for entry in route_server.routes_for_prefix(prefix):
            has_none, includes, excludes = route_server._classify(
                entry.communities)
            mask = mask_of(index, includes) if has_none \
                else full_mask(index) & ~mask_of(index, excludes)
            bit = index.bit_of[entry.member_asn]
            allowed[bit] = allowed.get(bit, 0) | (mask & ~(1 << bit))
    return reciprocal_pairs(allowed, index.universe)


def openness(reachability: MemberReachability,
             members: Sequence[int]) -> float:
    """Fraction of the other members *reachability* lets receive its
    routes (figure 11)."""
    others = [m for m in members if m != reachability.member_asn]
    if not others:
        return 0.0
    return len(reachability.allowed_members(others)) / len(others)


def export_openness_by_policy(
    peeringdb: PeeringDB,
    reachabilities: Mapping[str, Mapping[int, MemberReachability]],
    rs_members: Mapping[str, Sequence[int]],
) -> Dict[str, List[float]]:
    """Figure 11: per self-reported policy, the list of per-(member,
    IXP) fractions of RS members allowed to receive routes."""
    result: Dict[str, List[float]] = {}
    for ixp_name, per_member in reachabilities.items():
        members = list(rs_members.get(ixp_name, []))
        if not members:
            continue
        for asn, reachability in per_member.items():
            policy = peeringdb.policy_of(asn)
            if policy is PeeringPolicy.UNKNOWN:
                continue
            result.setdefault(policy.value, []).append(
                openness(reachability, members))
    return result


def repeller_report(
    reachabilities_by_ixp: Mapping[str, Mapping[int, MemberReachability]],
    rs_members_by_ixp: Mapping[str, Iterable[int]],
    customer_cone: Optional[Callable[[int], Set[int]]] = None,
    direct_customers: Optional[Callable[[int], Set[int]]] = None,
) -> RepellerReport:
    """Figure 13: count EXCLUDE applications across every route server."""
    report = RepellerReport()
    for ixp_name, per_member in reachabilities_by_ixp.items():
        members = set(rs_members_by_ixp.get(ixp_name, ()))
        for blocker, reachability in per_member.items():
            if reachability.mode != MODE_ALL_EXCEPT:
                continue
            for blocked in set(reachability.listed) & members:
                report.total_exclusions += 1
                report.blocking_frequency[blocked] = \
                    report.blocking_frequency.get(blocked, 0) + 1
                report.blockers.setdefault(blocked, set()).add(blocker)
                if customer_cone is not None and \
                        blocked in customer_cone(blocker):
                    report.customer_cone_exclusions += 1
                if direct_customers is not None and \
                        blocked in direct_customers(blocker):
                    report.provider_blocks_customer += 1
    return report

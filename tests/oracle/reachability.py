"""Object-level references for the reachability matrix.

Production answers reciprocal-ALLOW links, export openness (figure 11)
and repeller counts (figure 13) from a
:class:`~repro.runtime.reachmatrix.ReachabilityMatrix`.  This module
keeps the walks they replaced:

* :func:`reciprocal_pairs` — the integer-bitmask reciprocity kernel
  (transpose the masks bit by bit, AND or OR per row), the reference
  for the packed ``M & M.T`` kernel ``reachmatrix.reciprocal_links``;
* :func:`reciprocal_links_packed` — the packed kernel as it was before
  link keys: every nonzero of both triangles of ``M & M.T`` walked
  through ``int()``, the reference for ``ReachabilityPlane.links`` and
  ``link_keys``;
* :func:`link_views` — the matrix's global link views by set union,
  sort and per-link walks, the reference for the key-derived
  ``all_links``, ``multi_ixp_links``, ``link_ixps`` and
  ``peer_counts``; :func:`matrix_differences` diffs a matrix against
  both references;
* :func:`export_openness_by_policy` — figure 11 over the per-member
  ``MemberReachability`` objects, the reference for
  ``PolicyAnalysis.export_openness_from_matrix``;
* :func:`repeller_report` — figure 13's EXCLUDE counting over the same
  objects, the reference for ``RepellerAnalysis.analyse_matrix``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.repellers import RepellerReport
from repro.core.reachability import MemberReachability
from repro.registries.peeringdb import PeeringDB
from repro.runtime.bitset import iter_bits
from repro.runtime.reachmatrix import link_keys_of, packed_to_bool_matrix
from repro.topology.as_graph import PeeringPolicy

Link = Tuple[int, int]


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


def reciprocal_links_packed(packed, universe: Tuple[int, ...],
                            require_reciprocity: bool = True
                            ) -> Tuple[Link, ...]:
    """The reciprocal-ALLOW pairs of a packed uint64 ALLOW plane: unpack
    once, ``M & M.T`` (or ``M | M.T``), and walk every nonzero of both
    triangles in row-major order, keeping ``i < j`` — ascending
    sorted-pair order over a sorted universe."""
    size = len(universe)
    if size == 0:
        return ()
    matrix = packed_to_bool_matrix(packed, size)
    if require_reciprocity:
        mutual = matrix & matrix.T
    else:
        mutual = matrix | matrix.T
    rows_idx, cols_idx = np.nonzero(mutual)
    return tuple((universe[int(i)], universe[int(j)])
                 for i, j in zip(rows_idx, cols_idx) if i < j)


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
    both reciprocity flags against :func:`reciprocal_links_packed`."""
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
        for flag in (True, False):
            expected = reciprocal_links_packed(
                plane.packed(), plane.index.universe, flag)
            if plane.links(flag) != expected:
                problems.append(f"plane {ixp} links({flag}) differ")
            if not np.array_equal(plane.link_keys(flag),
                                  link_keys_of(expected)):
                problems.append(f"plane {ixp} link_keys({flag}) differ")
    return problems


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
                reachability.openness(members))
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
            if reachability.mode != "all-except":
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

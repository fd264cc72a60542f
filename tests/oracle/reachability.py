"""Object-level references for the reachability matrix.

Production answers reciprocal-ALLOW links, export openness (figure 11)
and repeller counts (figure 13) from a
:class:`~repro.runtime.reachmatrix.ReachabilityMatrix`.  This module
keeps the walks they replaced:

* :func:`reciprocal_pairs` — the integer-bitmask reciprocity kernel
  (transpose the masks bit by bit, AND or OR per row), the reference
  for the packed ``M & M.T`` kernel ``reachmatrix.reciprocal_links``;
* :func:`export_openness_by_policy` — figure 11 over the per-member
  ``MemberReachability`` objects, the reference for
  ``PolicyAnalysis.export_openness_from_matrix``;
* :func:`repeller_report` — figure 13's EXCLUDE counting over the same
  objects, the reference for ``RepellerAnalysis.analyse_matrix``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.repellers import RepellerReport
from repro.core.reachability import MemberReachability
from repro.registries.peeringdb import PeeringDB
from repro.runtime.bitset import iter_bits
from repro.topology.as_graph import PeeringPolicy


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

"""Peering-policy analyses (figures 9, 10 and 11).

* Figure 9: route-server participation split by self-reported peering
  policy (92% of open, 75% of selective, 43% of restrictive networks are
  connected to at least one route server).
* Figure 10: the matrix of IXP presences versus route-server
  participations (55.8% of ASes are at a single IXP and use its RS).
* Figure 11: the fraction of RS members an AS allows to receive its
  routes, as a function of its self-reported policy (a binary pattern:
  nearly all or nearly none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.registries.peeringdb import PeeringDB
from repro.topology.as_graph import ASGraph, PeeringPolicy


@dataclass
class ParticipationByPolicy:
    """Figure 9: per-policy counts of RS participation."""

    #: policy value -> {"participates": n, "does_not": m}
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def participation_rate(self, policy: str) -> float:
        """Fraction of networks with *policy* connected to >= 1 route server."""
        row = self.counts.get(policy)
        if not row:
            return 0.0
        total = row["participates"] + row["does_not"]
        return row["participates"] / total if total else 0.0

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for printing the figure-9 summary."""
        return [
            {
                "policy": policy,
                "participates": row["participates"],
                "does_not": row["does_not"],
                "rate": round(self.participation_rate(policy), 3),
            }
            for policy, row in sorted(self.counts.items())
        ]


@dataclass
class MultiIXPMatrix:
    """Figure 10: IXP presences vs route-server participations."""

    #: (num_ixps, num_rs) -> number of ASes
    cells: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Number of ASes counted."""
        return sum(self.cells.values())

    def fraction(self, num_ixps: int, num_rs: int) -> float:
        """Fraction of ASes in the given cell."""
        if not self.total:
            return 0.0
        return self.cells.get((num_ixps, num_rs), 0) / self.total

    def fraction_single_ixp_with_rs(self) -> float:
        """ASes at exactly one IXP and using its route server (55.8%)."""
        return self.fraction(1, 1)

    def fraction_no_rs(self) -> float:
        """ASes present at IXPs but using no route server (13.4%)."""
        if not self.total:
            return 0.0
        count = sum(n for (_, num_rs), n in self.cells.items() if num_rs == 0)
        return count / self.total

    def fraction_inconsistent_multi_ixp(self) -> float:
        """ASes at multiple IXPs that use a route server at some but not
        all of them (the 7.9% of section 5.2)."""
        if not self.total:
            return 0.0
        count = sum(n for (num_ixps, num_rs), n in self.cells.items()
                    if num_ixps > 1 and 0 < num_rs < num_ixps)
        return count / self.total


class PolicyAnalysis:
    """Join inferred data with the PeeringDB policy/scope records."""

    def __init__(self, graph: ASGraph, peeringdb: PeeringDB) -> None:
        self.graph = graph
        self.peeringdb = peeringdb

    # -- figure 9 -----------------------------------------------------------------------

    def participation_by_policy(
        self, ixp_names: Optional[Iterable[str]] = None
    ) -> ParticipationByPolicy:
        """Figure 9 over the ASes present at the given IXPs (all by default)."""
        wanted = set(ixp_names) if ixp_names is not None else None
        result = ParticipationByPolicy()
        for node in self.graph.nodes():
            presences = node.ixps if wanted is None else (node.ixps & wanted)
            if not presences:
                continue
            record = self.peeringdb.record(node.asn)
            if record is None or record.policy is PeeringPolicy.UNKNOWN:
                continue
            rs_count = len(node.rs_memberships if wanted is None
                           else (node.rs_memberships & wanted))
            row = result.counts.setdefault(
                record.policy.value, {"participates": 0, "does_not": 0})
            if rs_count > 0:
                row["participates"] += 1
            else:
                row["does_not"] += 1
        return result

    # -- figure 10 ----------------------------------------------------------------------

    def multi_ixp_matrix(
        self, ixp_names: Optional[Iterable[str]] = None, max_ixps: int = 7
    ) -> MultiIXPMatrix:
        """Figure 10 over the ASes present at the given IXPs."""
        wanted = set(ixp_names) if ixp_names is not None else None
        matrix = MultiIXPMatrix()
        for node in self.graph.nodes():
            presences = node.ixps if wanted is None else (node.ixps & wanted)
            if not presences:
                continue
            rs = node.rs_memberships if wanted is None \
                else (node.rs_memberships & wanted)
            num_ixps = min(len(presences), max_ixps)
            num_rs = min(len(rs), num_ixps)
            key = (num_ixps, num_rs)
            matrix.cells[key] = matrix.cells.get(key, 0) + 1
        return matrix

    # -- figure 11 ----------------------------------------------------------------------

    def export_openness_from_matrix(
        self,
        matrix,
        rs_members: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> Dict[str, List[float]]:
        """Figure 11: per self-reported policy, the list of per-(member,
        IXP) fractions of RS members allowed to receive routes, from a
        :class:`~repro.runtime.reachmatrix.ReachabilityMatrix`.

        With *rs_members* (the population per IXP) each plane answers
        from the exact merged policy.  Without it, the population
        defaults to each plane's member universe (answered from the row
        popcount), which can be a superset of a ground-truth RS-member
        list when the looking-glass summary surfaced additional members.
        """
        result: Dict[str, List[float]] = {}
        for ixp_name in sorted(matrix.planes):
            plane = matrix.planes[ixp_name]
            if rs_members is not None:
                members = list(rs_members.get(ixp_name, []))
                if not members:
                    continue
            else:
                members = None
                if not plane.num_members:
                    continue
            universe = plane.index.universe
            for bit in sorted(plane.policies):
                asn = universe[bit]
                policy = self.peeringdb.policy_of(asn)
                if policy is PeeringPolicy.UNKNOWN:
                    continue
                result.setdefault(policy.value, []).append(
                    plane.openness(asn, members))
        return result

    @staticmethod
    def mean_openness(openness_by_policy: Mapping[str, Sequence[float]]
                      ) -> Dict[str, float]:
        """Mean export openness per policy (figure 11's 96.7/80.4/69.2%)."""
        return {
            policy: (sum(values) / len(values) if values else 0.0)
            for policy, values in openness_by_policy.items()
        }

    @staticmethod
    def binary_pattern_fraction(openness_by_policy: Mapping[str, Sequence[float]],
                                low: float = 0.10, high: float = 0.90) -> float:
        """Fraction of (member, IXP) pairs whose openness is either below
        *low* or above *high* — the binary pattern of figure 11."""
        values = [v for series in openness_by_policy.values() for v in series]
        if not values:
            return 0.0
        binary = sum(1 for v in values if v <= low or v >= high)
        return binary / len(values)

"""Validation of the reciprocity assumption (section 4.4).

The inference assumes that if a member does not block another member on
*export*, it will not block it on *import* either.  AMS-IX generates its
route-server configuration from IRR objects, so both import and export
filters of its members are public; the paper checked 230 of them and
found the import filters at most as restrictive as the export filters.
:class:`ReciprocityValidator` reproduces that check against any IRR
database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.registries.irr import IRRDatabase


@dataclass
class MemberFilterComparison:
    """Import/export filter comparison for one member."""

    asn: int
    blocked_export: Set[int] = field(default_factory=set)
    blocked_import: Set[int] = field(default_factory=set)

    @property
    def import_blocks_not_in_export(self) -> Set[int]:
        """ASes blocked on import but not on export — a violation of the
        reciprocity assumption."""
        return self.blocked_import - self.blocked_export

    @property
    def violates_reciprocity(self) -> bool:
        """True if the import filter is more restrictive than the export."""
        return bool(self.import_blocks_not_in_export)

    @property
    def import_more_permissive(self) -> bool:
        """True if the import filter blocks strictly fewer ASes."""
        return self.blocked_import < self.blocked_export


@dataclass
class ReciprocityReport:
    """Aggregate outcome of the reciprocity validation."""

    ixp_name: str
    comparisons: List[MemberFilterComparison] = field(default_factory=list)

    @property
    def members_checked(self) -> int:
        """Number of members with both filters available."""
        return len(self.comparisons)

    @property
    def violations(self) -> List[MemberFilterComparison]:
        """Members whose import filter is more restrictive than their export."""
        return [c for c in self.comparisons if c.violates_reciprocity]

    @property
    def num_violations(self) -> int:
        """Number of members violating the assumption."""
        return len(self.violations)

    @property
    def holds(self) -> bool:
        """True if no member violates the assumption (the paper's finding)."""
        return self.num_violations == 0

    @property
    def fraction_import_more_permissive(self) -> float:
        """Fraction of members whose import filter blocks fewer ASes than
        their export filter (about half in the paper)."""
        if not self.comparisons:
            return 0.0
        permissive = sum(1 for c in self.comparisons if c.import_more_permissive)
        return permissive / len(self.comparisons)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary for reports and benchmarks."""
        return {
            "ixp": self.ixp_name,
            "members_checked": self.members_checked,
            "violations": self.num_violations,
            "assumption_holds": self.holds,
            "import_more_permissive": round(
                self.fraction_import_more_permissive, 3),
        }


class ReciprocityValidator:
    """Compare IRR import and export filters of route-server members."""

    def __init__(self, irr: IRRDatabase) -> None:
        self.irr = irr

    def compare_member(self, asn: int) -> Optional[MemberFilterComparison]:
        """Filter comparison for one member, or None without IRR data."""
        policy = self.irr.aut_num(asn)
        if policy is None:
            return None
        return MemberFilterComparison(
            asn=asn,
            blocked_export=set(policy.blocked_export),
            blocked_import=set(policy.blocked_import),
        )

    def validate(self, ixp_name: str, members: Iterable[int]) -> ReciprocityReport:
        """Validate the assumption over every member with IRR filters."""
        report = ReciprocityReport(ixp_name=ixp_name)
        for asn in sorted(set(members)):
            comparison = self.compare_member(asn)
            if comparison is None:
                continue
            report.comparisons.append(comparison)
        return report

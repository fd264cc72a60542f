"""Internet Routing Registry (IRR) database substrate.

Holds aut-num policies (import/export filters) and as-set objects.  Two
uses in the paper:

* route-server member discovery: IXPs register an as-set listing the
  networks connected to their route server, and members reference the RS
  ASN in their aut-num import/export lines (this is how the paper
  recovered partial LINX membership);
* the reciprocity validation of section 4.4: AMS-IX generates its RS
  filters from IRR data, so both import and export filters of 230 members
  could be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.registries.rpsl import RPSLObject, parse_as_references


@dataclass
class AutNumPolicy:
    """Import/export policy of one AS as registered in the IRR.

    ``import_accept`` / ``export_announce`` map a peer ASN to the set of
    origin ASNs whose routes are accepted from / announced to that peer.
    An empty set with the peer present means "nothing"; a peer key mapped
    to None means "ANY".  ``blocked_import`` / ``blocked_export`` list
    route-server peers explicitly filtered (the form AMS-IX members use).
    """

    asn: int
    blocked_import: Set[int] = field(default_factory=set)
    blocked_export: Set[int] = field(default_factory=set)
    rs_peers: Set[int] = field(default_factory=set)
    source: str = "RIPE"
    accurate: bool = True

    def import_allows(self, peer_asn: int) -> bool:
        """True if routes from *peer_asn* are accepted."""
        return peer_asn not in self.blocked_import

    def export_allows(self, peer_asn: int) -> bool:
        """True if routes are announced to *peer_asn*."""
        return peer_asn not in self.blocked_export

    def references_asn(self, asn: int) -> bool:
        """True if the policy references *asn* anywhere (used for the
        LINX-style search of members that peer with a given RS ASN)."""
        return asn in self.rs_peers or asn in self.blocked_import \
            or asn in self.blocked_export


@dataclass
class ASSet:
    """An RPSL as-set object (e.g. ``AS-DECIX-RS-MEMBERS``)."""

    name: str
    members: Set[int] = field(default_factory=set)
    source: str = "RIPE"
    #: Fraction of real members missing / spurious entries are modelled by
    #: the scenario when it populates the set.
    maintained_by: Optional[int] = None


class IRRDatabase:
    """A multi-source IRR database (RIPE / ARIN / RADB merged view)."""

    def __init__(self) -> None:
        self._aut_nums: Dict[int, AutNumPolicy] = {}
        self._as_sets: Dict[str, ASSet] = {}

    # -- population -----------------------------------------------------------------

    def register_aut_num(self, policy: AutNumPolicy) -> AutNumPolicy:
        """Add (or replace) an aut-num policy."""
        self._aut_nums[policy.asn] = policy
        return policy

    def register_as_set(self, as_set: ASSet) -> ASSet:
        """Add (or replace) an as-set."""
        self._as_sets[as_set.name.upper()] = as_set
        return as_set

    def load_rpsl_objects(self, objects: Iterable[RPSLObject]) -> int:
        """Ingest parsed RPSL objects (aut-num and as-set classes only)."""
        count = 0
        for obj in objects:
            if obj.object_class == "aut-num":
                asn_text = obj.key.upper().lstrip("AS")
                if not asn_text.isdigit():
                    continue
                policy = AutNumPolicy(asn=int(asn_text), source=obj.source)
                for value in obj.values("import"):
                    policy.rs_peers.update(parse_as_references(value))
                for value in obj.values("export"):
                    policy.rs_peers.update(parse_as_references(value))
                self.register_aut_num(policy)
                count += 1
            elif obj.object_class == "as-set":
                as_set = ASSet(name=obj.key, source=obj.source)
                for value in obj.values("members"):
                    as_set.members.update(parse_as_references(value))
                self.register_as_set(as_set)
                count += 1
        return count

    # -- queries ---------------------------------------------------------------------

    def aut_num(self, asn: int) -> Optional[AutNumPolicy]:
        """The aut-num policy of *asn*, or None."""
        return self._aut_nums.get(asn)

    def aut_nums(self) -> List[AutNumPolicy]:
        """All registered aut-num policies."""
        return [self._aut_nums[asn] for asn in sorted(self._aut_nums)]

    def as_set(self, name: str) -> Optional[ASSet]:
        """The as-set called *name*, or None."""
        return self._as_sets.get(name.upper())

    def as_sets(self) -> List[ASSet]:
        """All registered as-sets."""
        return [self._as_sets[name] for name in sorted(self._as_sets)]

    def find_as_sets_containing(self, asn: int) -> List[ASSet]:
        """As-sets that list *asn* as a member."""
        return [s for s in self._as_sets.values() if asn in s.members]

    def ases_referencing(self, asn: int) -> List[int]:
        """ASes whose aut-num policy references *asn*.

        This is the LINX fallback of Table 2: when an IXP publishes
        neither a member list nor an as-set, searching member aut-num
        records for the route-server ASN recovers a partial member list.
        """
        return sorted(policy.asn for policy in self._aut_nums.values()
                      if policy.references_asn(asn))

    def __len__(self) -> int:
        return len(self._aut_nums) + len(self._as_sets)

"""PeeringDB-like registry.

Holds the self-reported facts the paper joins against its inferences:
peering policy (open / selective / restrictive), geographic scope,
IXP presences, and the looking glasses a network operates (used to pick
the 70 validation LGs of section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.topology.as_graph import GeographicScope, PeeringPolicy


@dataclass
class LookingGlassRecord:
    """A looking glass advertised in the registry."""

    asn: int
    url: str
    display_all_paths: bool = True


@dataclass
class PeeringDBRecord:
    """The registry entry of one network."""

    asn: int
    name: str = ""
    policy: PeeringPolicy = PeeringPolicy.UNKNOWN
    scope: GeographicScope = GeographicScope.NOT_AVAILABLE
    ixps: Set[str] = field(default_factory=set)
    looking_glasses: List[LookingGlassRecord] = field(default_factory=list)


class PeeringDB:
    """The registry: a queryable collection of :class:`PeeringDBRecord`."""

    def __init__(self) -> None:
        self._records: Dict[int, PeeringDBRecord] = {}

    # -- population --------------------------------------------------------------

    def register(self, record: PeeringDBRecord) -> PeeringDBRecord:
        """Add (or replace) a network record."""
        self._records[record.asn] = record
        return record

    def add_looking_glass(self, asn: int, url: str,
                          display_all_paths: bool = True) -> LookingGlassRecord:
        """Attach a looking glass to an existing (or new) record."""
        record = self._records.setdefault(asn, PeeringDBRecord(asn=asn))
        lg = LookingGlassRecord(asn=asn, url=url,
                                display_all_paths=display_all_paths)
        record.looking_glasses.append(lg)
        return lg

    # -- queries ------------------------------------------------------------------

    def record(self, asn: int) -> Optional[PeeringDBRecord]:
        """The record of *asn*, or None if the network never registered."""
        return self._records.get(asn)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, asn: int) -> bool:
        return asn in self._records

    def policy_of(self, asn: int) -> PeeringPolicy:
        """Self-reported policy of *asn* (UNKNOWN when unregistered)."""
        record = self._records.get(asn)
        return record.policy if record else PeeringPolicy.UNKNOWN

    def scope_of(self, asn: int) -> GeographicScope:
        """Self-reported geographic scope (N/A when unregistered)."""
        record = self._records.get(asn)
        return record.scope if record else GeographicScope.NOT_AVAILABLE

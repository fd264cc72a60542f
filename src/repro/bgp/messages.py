"""BGP UPDATE messages and RIB dump entries.

Collectors archive both periodic table dumps and streams of update
messages; the paper accumulates "daily BGP table dumps and update
messages ... for 1-7 May 2013" and filters transient paths.  These light
message objects carry the timestamp needed for that filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix


@dataclass(frozen=True)
class UpdateMessage:
    """A BGP announcement observed by a collector.

    ``peer_asn`` is the vantage point (the collector's direct neighbour),
    ``timestamp`` is in seconds since the start of the measurement window.
    """

    timestamp: float
    peer_asn: int
    prefix: Prefix
    as_path: ASPath
    communities: FrozenSet[Community] = frozenset()
    collector: Optional[str] = None

    @property
    def origin_asn(self) -> int:
        """Origin AS of the announced route."""
        return self.as_path.origin_asn

    def is_clean(self) -> bool:
        """True if the AS path passes the reserved-ASN and cycle filters."""
        return self.as_path.is_clean()


@dataclass(frozen=True)
class RibEntry:
    """One row of a collector RIB dump (MRT TABLE_DUMP_V2 equivalent)."""

    peer_asn: int
    prefix: Prefix
    as_path: ASPath
    communities: FrozenSet[Community] = frozenset()
    collector: Optional[str] = None
    timestamp: float = 0.0

    @property
    def origin_asn(self) -> int:
        """Origin AS of the dumped route."""
        return self.as_path.origin_asn

    def is_clean(self) -> bool:
        """True if the AS path passes the reserved-ASN and cycle filters."""
        return self.as_path.is_clean()

    def key(self) -> Tuple[int, Prefix]:
        """(vantage point, prefix) identity of the entry."""
        return (self.peer_asn, self.prefix)

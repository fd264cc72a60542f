"""RIB dump entries.

Collectors archive periodic table dumps; the paper accumulates "daily
BGP table dumps and update messages ... for 1-7 May 2013" and filters
transient paths.  An entry carries the timestamp that filtering needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.bgp.attributes import ASPath
from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix


@dataclass(frozen=True)
class RibEntry:
    """One row of a collector RIB dump (MRT TABLE_DUMP_V2 equivalent)."""

    peer_asn: int
    prefix: Prefix
    as_path: ASPath
    communities: FrozenSet[Community] = frozenset()
    collector: Optional[str] = None
    timestamp: float = 0.0

"""Vantage points: the ASes that feed route collectors.

The paper notes that two-thirds of contributing ASes configure their
collector session like a peering session, exporting only customer-learned
and own routes; the remaining third provide full feeds.  The distinction
matters enormously for which RS communities become visible passively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.bgp.propagation import CLASS_CUSTOMER, PropagationResult


class FeedType(enum.Enum):
    """How the vantage point treats its collector session."""

    FULL = "full"              #: exports its entire routing table
    CUSTOMER_ONLY = "customer" #: exports only own/customer routes (p2p-like)


@dataclass
class VantagePoint:
    """One AS feeding a route collector."""

    asn: int
    feed_type: FeedType = FeedType.CUSTOMER_ONLY
    collector: str = "route-views"

    def export_rows(self, propagation: PropagationResult, table):
        """The RIB entries this vantage point exports to its collector,
        derived from the best routes it holds in *propagation*.

        The feed is interned into a
        :class:`~repro.collectors.archive.RibEntryTable` straight from
        the route-block columns (no ``PropagatedRoute`` objects) and
        returned as parallel ``(peers, prefix_ids, path_ids, bag_ids)``
        row columns, one row per (route, prefix) in origin recording
        order.  One interned path is shared by every prefix of an
        origin, which lets downstream passive extraction memoise on
        path identity.
        """
        full = self.feed_type is FeedType.FULL
        asn = self.asn
        peers: List[int] = []
        prefix_ids: List[int] = []
        path_ids: List[int] = []
        bag_ids: List[int] = []
        for origin, block, row in propagation.iter_best_columns_at(asn):
            if not full and block.provenance_at(row) > CLASS_CUSTOMER:
                continue
            prefixes = propagation.origin_spec(origin).prefixes
            if not prefixes:
                continue
            path_id = table.intern_path_tuple(block.path(row))
            bag_id = table.intern_bag(block.communities_at(row))
            for prefix in prefixes:
                prefix_ids.append(table.intern_prefix(prefix))
            count = len(prefixes)
            peers.extend([asn] * count)
            path_ids.extend([path_id] * count)
            bag_ids.extend([bag_id] * count)
        return peers, prefix_ids, path_ids, bag_ids

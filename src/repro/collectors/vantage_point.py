"""Vantage points: the ASes that feed route collectors.

The paper notes that two-thirds of contributing ASes configure their
collector session like a peering session, exporting only customer-learned
and own routes; the remaining third provide full feeds.  The distinction
matters enormously for which RS communities become visible passively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FeedType(enum.Enum):
    """How the vantage point treats its collector session."""

    FULL = "full"              #: exports its entire routing table
    CUSTOMER_ONLY = "customer" #: exports only own/customer routes (p2p-like)


@dataclass
class VantagePoint:
    """One AS feeding a route collector.

    Its feed is gathered with every other vantage point's by
    :func:`~repro.collectors.archive.gather_feeds`: the best routes the
    AS holds, all of them on a full feed, only customer-learned and own
    routes on a customer-only feed.
    """

    asn: int
    feed_type: FeedType = FeedType.CUSTOMER_ONLY
    collector: str = "route-views"

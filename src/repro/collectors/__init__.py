"""Passive BGP collection substrate (Route Views / RIPE RIS style).

Route collectors receive BGP feeds from voluntary vantage points.  Most
vantage points configure the collector session like a peering session and
therefore export only their own and their customers' routes — the root of
the topology-incompleteness problem the paper quantifies.  The archives
produced here (daily RIB dumps plus update streams) are what the passive
inference of section 4.2 consumes.
"""

from repro.collectors.vantage_point import VantagePoint, FeedType
from repro.collectors.route_collector import RouteCollector
from repro.collectors.archive import (
    CollectorArchive,
    MeasurementWindow,
    RibDump,
    gather_feeds,
)

__all__ = [
    "VantagePoint",
    "FeedType",
    "RouteCollector",
    "CollectorArchive",
    "MeasurementWindow",
    "RibDump",
    "gather_feeds",
]

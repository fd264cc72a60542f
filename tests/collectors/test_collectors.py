"""Tests for vantage points, route collectors and archives."""

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import (
    Adjacency,
    OriginSpec,
    PropagationEngine,
    bidirectional_adjacencies,
)
from repro.bgp.attributes import ASPath
from repro.collectors.archive import (
    CollectorArchive,
    MeasurementWindow,
    gather_feeds,
)
from repro.collectors.route_collector import RouteCollector
from repro.collectors.vantage_point import FeedType, VantagePoint


@pytest.fixture
def propagation():
    # 10 customer of 20; 20 peers with 30 over a route server (communities);
    # 30 has customer 40 which feeds a collector.
    adjacencies = []
    adjacencies.extend(bidirectional_adjacencies(10, 20, Relationship.PROVIDER))
    adjacencies.extend(bidirectional_adjacencies(40, 30, Relationship.PROVIDER))
    tag = frozenset({Community(6695, 6695)})
    adjacencies.append(Adjacency(source=20, target=30,
                                 relationship=Relationship.RS_PEER,
                                 communities=tag))
    adjacencies.append(Adjacency(source=30, target=20,
                                 relationship=Relationship.RS_PEER))
    engine = PropagationEngine(adjacencies)
    origins = [OriginSpec(asn=10, prefixes=[Prefix.parse("11.0.0.0/24")]),
               OriginSpec(asn=30, prefixes=[Prefix.parse("11.0.3.0/24")]),
               OriginSpec(asn=40, prefixes=[Prefix.parse("11.0.4.0/24")])]
    return engine.propagate(origins)


def exported(vantage_point, propagation):
    """The vantage point's feed, gathered alone by ``gather_feeds`` and
    decoded from the dump's columns as ``(peer, prefix, as_path,
    communities)`` rows."""
    collector = RouteCollector(name="route-views")
    collector.add_vantage_point(vantage_point)
    dump = gather_feeds([collector], propagation)
    offsets = dump.path_offsets.tolist()
    values = dump.path_values.tolist()
    return [(peer, dump.prefixes[prefix_id],
             ASPath(values[offsets[path_id]:offsets[path_id + 1]]),
             dump.bags[bag_id])
            for peer, prefix_id, path_id, bag_id
            in zip(dump.peer.tolist(), dump.prefix_id.tolist(),
                   dump.path_id.tolist(), dump.bag_id.tolist())]


class TestVantagePoint:
    def test_customer_only_feed_excludes_peer_routes(self, propagation):
        vp = VantagePoint(asn=30, feed_type=FeedType.CUSTOMER_ONLY)
        rows = exported(vp, propagation)
        origins = {path.origin_asn for _peer, _prefix, path, _bag in rows}
        # 30 learned 10's route from an RS peer: not exported on a peer-like feed.
        assert 10 not in origins
        assert 40 in origins and 30 in origins
        assert {peer for peer, _prefix, _path, _bag in rows} == {30}

    def test_full_feed_includes_everything(self, propagation):
        vp = VantagePoint(asn=30, feed_type=FeedType.FULL)
        origins = {path.origin_asn
                   for _peer, _prefix, path, _bag in exported(vp, propagation)}
        assert {10, 30, 40} <= origins

    def test_communities_survive_to_the_feed(self, propagation):
        vp = VantagePoint(asn=40, feed_type=FeedType.FULL)
        bags = {path.origin_asn: bag
                for _peer, _prefix, path, bag in exported(vp, propagation)}
        # 40 gets 10's route through its provider 30, which learned it via
        # the route server: the RS community must still be attached.
        assert Community(6695, 6695) in bags[10]


class TestRouteCollector:
    def test_table_dump_and_links(self, propagation):
        collector = RouteCollector(name="route-views")
        collector.add_vantage_point(VantagePoint(asn=40, feed_type=FeedType.FULL))
        archive = CollectorArchive([collector],
                                   window=MeasurementWindow(num_days=1))
        archive.collect(propagation)
        dump = archive.dump_for_day(1)
        assert dump and all(entry.collector == "route-views" for entry in dump)
        links = archive.visible_as_links()
        assert (30, 40) in links and (20, 30) in links
        assert collector.peer_asns() == [40]


class TestCollectorArchive:
    def make_archive(self, propagation, transient=0.0, days=3):
        collector = RouteCollector(name="rrc00")
        collector.add_vantage_point(VantagePoint(asn=40, feed_type=FeedType.FULL))
        archive = CollectorArchive([collector],
                                   window=MeasurementWindow(num_days=days))
        archive.collect(propagation, transient_fraction=transient)
        return archive

    def test_window_days(self):
        assert MeasurementWindow(start_day=1, num_days=3).days() == [1, 2, 3]

    def test_daily_dumps_cover_window(self, propagation):
        archive = self.make_archive(propagation)
        assert len(archive.dump_for_day(1)) == len(archive.dump_for_day(3))
        assert len(archive.all_entries()) == 3 * len(archive.dump_for_day(1))

    def test_stable_entries_deduplicate(self, propagation):
        archive = self.make_archive(propagation)
        stable = archive.stable_entries(min_days=2)
        assert len(stable) == len(archive.dump_for_day(1))

    def test_transient_entries_filtered(self, propagation):
        archive = self.make_archive(propagation, transient=0.5)
        all_keys = {(e.peer_asn, e.prefix, e.as_path.asns)
                    for e in archive.all_entries()}
        stable_keys = {(e.peer_asn, e.prefix, e.as_path.asns)
                       for e in archive.stable_entries(min_days=2)}
        assert stable_keys < all_keys

    def test_clean_stable_entries_pass_filters(self, propagation):
        archive = self.make_archive(propagation, transient=0.3)
        assert all(e.is_clean() for e in archive.clean_stable_entries())

    def test_updates_synthesised(self, propagation):
        archive = self.make_archive(propagation)
        assert archive.updates()
        assert all(u.peer_asn == 40 for u in archive.updates())

    def test_visible_links(self, propagation):
        archive = self.make_archive(propagation)
        assert (20, 30) in archive.visible_as_links()

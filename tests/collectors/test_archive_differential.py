"""The column archive against the object archive on hand-built cases.

The archive stores the window's base dump once plus the transient rows
and derives every per-day dump and the stable selections from them;
:class:`~tests.oracle.observation.ObjectArchive` stores one
:class:`RibEntry` per route, prefix and day.  On a hand-built
propagation result (prepends, a cycle, private and reserved ASNs, a
prefix two origins announce, a prefix an origin lists twice, an origin
without prefixes, two best rows for one observer, a path equal to
another's transient variant, an offered group next to best-only
origins) and on an engine-propagated one, both must
agree entry for entry, in order: for windows of 1, 2 and 7 days, every
``min_days`` from 1 to the window length + 1, transient fractions of 0,
0.01, 0.5 and 1.0, one vantage-point ASN feeding both collectors (once
full, once customer-only), a vantage point with no routes, and full and
customer-only feeds.  The stable views' row positions must equal the
grouped scan the archive ran before (:func:`grouped_scan_rows`), and
the value tables must keep the first-seen order of the dump.
"""

from __future__ import annotations

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import (
    Adjacency,
    CLASS_CUSTOMER,
    CLASS_ORIGIN,
    CLASS_PEER,
    CLASS_PROVIDER,
    OriginSpec,
    PropagatedRoute,
    PropagationEngine,
    PropagationResult,
    RouteBlock,
)
from repro.collectors.archive import CollectorArchive, MeasurementWindow
from repro.collectors.route_collector import RouteCollector
from repro.collectors.vantage_point import FeedType, VantagePoint

from repro.ixp.looking_glass import ASLookingGlass

from tests.collectors.test_columnar_observation import entry_keys, lg_table
from tests.oracle.observation import (
    ObjectArchive,
    all_entries,
    dump_for_day,
    grouped_scan_rows,
    route_by_route_lg,
)
from tests.oracle.propagation import (
    bidirectional_adjacencies,
    engine_from_adjacencies,
)
from tests.oracle.blocks import block_from_routes

P1, P2, P3, P4, P5, P6 = (Prefix.parse(f"10.{i}.0.0/16") for i in range(6))
RS = frozenset({Community(6695, 6695)})
EXCLUDE = frozenset({Community(0, 7), Community(6695, 6695)})


def _route(asn, path, provenance, bag=frozenset()):
    return PropagatedRoute(asn=asn, path=path, communities=bag,
                           provenance=provenance,
                           learned_from=path[1] if len(path) > 1 else None)


def hand_result() -> PropagationResult:
    """Origins in recording order, each with its hand-made best routes."""
    origins = [
        (OriginSpec(asn=1, prefixes=[P1, P2]), [
            _route(100, (100, 7, 1), CLASS_CUSTOMER, RS),
            _route(200, (200, 1), CLASS_PEER, EXCLUDE),
            _route(100, (100, 8, 1), CLASS_PEER),      # a second best row
            _route(400, (400, 1), CLASS_CUSTOMER)]),  # not a vantage point
        (OriginSpec(asn=2, prefixes=[]), [
            _route(100, (100, 2), CLASS_CUSTOMER)]),
        (OriginSpec(asn=3, prefixes=[P1, P3, P3]), [
            _route(100, (100, 100, 3), CLASS_PROVIDER, RS),
            _route(200, (200, 65001, 3), CLASS_CUSTOMER)]),
        (OriginSpec(asn=4, prefixes=[P4, P1]), [
            _route(100, (100, 5, 100, 4), CLASS_PEER, EXCLUDE),
            _route(200, (200, 23456, 4), CLASS_CUSTOMER, RS)]),
        (OriginSpec(asn=200, prefixes=[P5]), [
            _route(200, (200,), CLASS_ORIGIN),
            _route(100, (100, 200), CLASS_CUSTOMER, RS)]),
        (OriginSpec(asn=6, prefixes=[P6]), []),
        # (100, 3) prepended is origin 3's path: the transient variant
        # of this row shares a key with a base row.
        (OriginSpec(asn=9, prefixes=[P3]), [
            _route(100, (100, 3), CLASS_CUSTOMER)]),
    ]
    # Observer 200's Adj-RIB-In for origin 4, out of display order.
    offered = {4: [_route(200, (200, 9, 8, 4), CLASS_PEER, EXCLUDE),
                   _route(200, (200, 23456, 4), CLASS_CUSTOMER, RS),
                   _route(200, (200, 9, 4), CLASS_PEER)]}
    result = PropagationResult()
    for spec, routes in origins:
        result._record(spec, block_from_routes(routes),
                       block_from_routes(offered.get(spec.asn, [])))
    return result


def engine_result() -> PropagationResult:
    """A small propagated topology with a route server and a private ASN
    on some paths."""
    adjacencies = []
    adjacencies += bidirectional_adjacencies(10, 20, Relationship.PROVIDER)
    adjacencies += bidirectional_adjacencies(40, 30, Relationship.PROVIDER)
    adjacencies += bidirectional_adjacencies(65001, 40,
                                             Relationship.CUSTOMER)
    adjacencies.append(Adjacency(source=20, target=30,
                                 relationship=Relationship.RS_PEER,
                                 communities=RS))
    adjacencies.append(Adjacency(source=30, target=20,
                                 relationship=Relationship.RS_PEER))
    origins = [OriginSpec(asn=asn, prefixes=[Prefix.parse(f"11.0.{i}.0/24")
                                             for i in range(asn % 3)])
               for asn in (10, 20, 30, 40, 65001)]
    return engine_from_adjacencies(adjacencies).propagate(origins)


RESULTS = {"hand": (hand_result, (100, 200, 300)),
           "engine": (engine_result, (40, 30, 10))}


def collectors(vantage_asns):
    """Two collectors; the first vantage point feeds both (full, then
    customer-only), the last one's ASN also has no routes in the hand
    result."""
    first, second, third = vantage_asns
    route_views = RouteCollector(name="route-views")
    ripe_ris = RouteCollector(name="rrc00")
    route_views.add_vantage_point(VantagePoint(first, FeedType.FULL))
    route_views.add_vantage_point(VantagePoint(third, FeedType.FULL))
    ripe_ris.add_vantage_point(VantagePoint(second,
                                            FeedType.CUSTOMER_ONLY))
    ripe_ris.add_vantage_point(VantagePoint(first, FeedType.CUSTOMER_ONLY))
    ripe_ris.add_vantage_point(VantagePoint(-1, FeedType.FULL))
    return [route_views, ripe_ris]


def first_seen(values):
    seen = {}
    for value in values:
        seen.setdefault(value, len(seen))
    return list(seen)


@pytest.mark.parametrize("result_name", sorted(RESULTS))
@pytest.mark.parametrize("days", (1, 2, 7))
@pytest.mark.parametrize("fraction", (0.0, 0.01, 0.5, 1.0))
def test_archive_matches_object_archive(result_name, days, fraction):
    build, vantage_asns = RESULTS[result_name]
    propagation = build()
    window = MeasurementWindow(num_days=days)
    archive = CollectorArchive(collectors(vantage_asns), window=window,
                               seed=days)
    archive.collect(propagation, transient_fraction=fraction)
    oracle = ObjectArchive(collectors(vantage_asns), window=window,
                           seed=days)
    oracle.collect(propagation, transient_fraction=fraction)

    assert entry_keys(all_entries(archive)) == \
        entry_keys(all_entries(oracle))
    for day in window.days() + [0, days + 1]:
        assert entry_keys(dump_for_day(archive, day)) == \
            entry_keys(dump_for_day(oracle, day)), day
    table = archive.stable_entries(1).table
    for min_days in range(1, days + 2):
        stable = archive.stable_entries(min_days)
        assert entry_keys(stable) == \
            entry_keys(oracle.stable_entries(min_days)), min_days
        assert stable.rows.tolist() == \
            grouped_scan_rows(table, min_days).tolist(), min_days
        assert entry_keys(archive.clean_stable_entries(min_days)) == \
            entry_keys(oracle.clean_stable_entries(min_days)), min_days
    assert archive.visible_as_links() == oracle.visible_as_links()

    # Value tables in first-seen dump order; transient paths after the
    # dump's, in transient order.
    base = dump_for_day(oracle, 1)[:table.base_count]
    transients = [entry for day in window.days()
                  for entry in dump_for_day(oracle, day)[table.base_count:]]
    assert table.prefixes == first_seen(entry.prefix for entry in base)
    assert table.bags == first_seen(entry.communities for entry in base)
    assert [table.path(path_id).asns
            for path_id in range(table.num_paths)] == first_seen(
        entry.as_path.asns for entry in base + transients)
    assert table.collectors == ["route-views", "rrc00"]


def test_hand_result_reaches_every_case():
    """The hand-built archive holds what the differential relies on:
    dirty paths, a repeated base key, a transient key equal to a base
    key, and rows from both feed types of the shared vantage point."""
    archive = CollectorArchive(collectors((100, 200, 300)),
                               window=MeasurementWindow(num_days=2), seed=2)
    archive.collect(hand_result(), transient_fraction=1.0)
    table = archive.stable_entries(1).table
    base = table.base_count
    clean = archive.clean_stable_entries(2)
    stable = archive.stable_entries(2)
    # Both collectors carry the shared vantage point's customer routes:
    # the repeated keys leave one stable row each.
    day_one = dump_for_day(archive, 1)
    assert {entry.collector for entry in day_one
            if entry.peer_asn == 100} == {"route-views", "rrc00"}
    assert len(clean) < len(stable) < base
    # (100, 3) prepended repeats a base key: not a transient-only key.
    assert len(archive.stable_entries(1)) < base + len(table.transient_day)
    assert not any(entry.peer_asn == 300 for entry in day_one)
    assert all(entry.prefix != P6 for entry in day_one)


@pytest.mark.parametrize("asn", (100, 200, 300, 400))
def test_hand_result_lg_views_match_route_by_route(asn):
    """Bulk LG views over the hand-built result: two best rows for one
    origin (the last is displayed), an offered group next to best-only
    origins, a prefix two origins announce and one listed twice."""
    propagation = hand_result()
    lg = ASLookingGlass(asn=asn)
    lg.load_view(propagation.observer_view(asn))
    oracle = route_by_route_lg(propagation, asn)
    assert lg.prefixes() == oracle.prefixes()
    assert lg_table(lg) == lg_table(oracle)

"""The object observation plane, kept as the oracle.

Production builds the collector archive and the validation looking
glasses from the propagation result's ``ObservationIndex`` columns
only (:func:`~repro.collectors.archive.gather_feeds`,
:class:`~repro.collectors.archive.RibEntryTable`,
:meth:`~repro.ixp.looking_glass.ASLookingGlass.load_view`).  This
module is the seed's object implementation of the same steps:

* :class:`ObjectArchive` — one :class:`RibEntry` per (route, prefix)
  per day, exported from ``iter_routes_at`` route by route, with the
  dict-fold transient filter of section 5;
* :func:`route_by_route_lg` — a validation looking glass loaded one
  :class:`LGRoute` at a time from ``all_paths``;
* :func:`grouped_scan_rows` — the stable filter as one grouped scan
  over every day's rows, which pins the production view's row
  positions, not just its entries.

The first two read only the object API every result offers, so they can
be fed either a production :class:`~repro.bgp.propagation.PropagationResult`
or the oracle :class:`~tests.oracle.propagation.ObjectResult`; the
random draws (transient sample, update sample) consume the RNG exactly
as production does.  :func:`dump_from_rows` builds a hand-made
:class:`~repro.collectors.archive.RibDump` for ``CollectorArchive.record``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bgp.attributes import ASPath
from repro.bgp.messages import RibEntry, UpdateMessage
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import CLASS_CUSTOMER
from repro.collectors.archive import MeasurementWindow, RibDump
from repro.collectors.vantage_point import FeedType
from repro.ixp.looking_glass import ASLookingGlass, LGRoute


def exported_routes(vantage_point, propagation,
                    timestamp: float = 0.0) -> List[RibEntry]:
    """The RIB entries *vantage_point* exports, route by route."""
    entries: List[RibEntry] = []
    full = vantage_point.feed_type is FeedType.FULL
    for origin, route in propagation.iter_routes_at(vantage_point.asn):
        if not full and route.provenance > CLASS_CUSTOMER:
            continue
        for prefix in propagation.origin_spec(origin).prefixes:
            entries.append(RibEntry(
                peer_asn=vantage_point.asn,
                prefix=prefix,
                as_path=ASPath(route.path),
                communities=route.communities,
                collector=vantage_point.collector,
                timestamp=timestamp,
            ))
    return entries


class ObjectArchive:
    """Per-day lists of RIB entry objects over a measurement window."""

    def __init__(self, collectors, window: Optional[MeasurementWindow] = None,
                 seed: int = 7) -> None:
        self.collectors = list(collectors)
        self.window = window or MeasurementWindow()
        self._rng = random.Random(seed)
        self._dumps: Dict[int, List[RibEntry]] = {}
        self._updates: List[UpdateMessage] = []

    def collect(self, propagation, transient_fraction: float = 0.0) -> None:
        base_entries: List[RibEntry] = []
        for collector in self.collectors:
            for vantage_point in collector.vantage_points:
                base_entries.extend(exported_routes(vantage_point,
                                                    propagation))
        for day in self.window.days():
            self._dumps[day] = [RibEntry(
                peer_asn=e.peer_asn, prefix=e.prefix, as_path=e.as_path,
                communities=e.communities, collector=e.collector,
                timestamp=float(day)) for e in base_entries]
        if transient_fraction > 0 and base_entries:
            count = max(1, int(len(base_entries) * transient_fraction))
            chosen = self._rng.sample(base_entries,
                                      min(count, len(base_entries)))
            day = self._rng.choice(self.window.days())
            for entry in chosen:
                # Same prefix/VP, a short-lived path with the first hop
                # prepended.
                self._dumps[day].append(RibEntry(
                    peer_asn=entry.peer_asn, prefix=entry.prefix,
                    as_path=ASPath(entry.as_path.asns[:1]
                                   + entry.as_path.asns),
                    communities=entry.communities,
                    collector=entry.collector, timestamp=float(day)))
        if base_entries:
            sample_size = min(len(base_entries),
                              max(1, len(base_entries) // 20))
            for entry in self._rng.sample(base_entries, sample_size):
                day = self._rng.choice(self.window.days())
                self._updates.append(UpdateMessage(
                    timestamp=day + self._rng.random(),
                    peer_asn=entry.peer_asn, prefix=entry.prefix,
                    as_path=entry.as_path, communities=entry.communities,
                    collector=entry.collector))

    def dump_for_day(self, day: int) -> List[RibEntry]:
        return list(self._dumps.get(day, []))

    def all_entries(self) -> List[RibEntry]:
        return [entry for day in sorted(self._dumps)
                for entry in self._dumps[day]]

    def updates(self) -> List[UpdateMessage]:
        return list(self._updates)

    def stable_entries(self, min_days: int = 2) -> List[RibEntry]:
        persistence: Dict[Tuple[int, Prefix, Tuple[int, ...]], Set[int]] = {}
        samples: Dict[Tuple[int, Prefix, Tuple[int, ...]], RibEntry] = {}
        for day, entries in self._dumps.items():
            for entry in entries:
                key = (entry.peer_asn, entry.prefix, entry.as_path.asns)
                persistence.setdefault(key, set()).add(day)
                samples.setdefault(key, entry)
        effective_min = min(min_days, len(self._dumps)) if self._dumps \
            else min_days
        return [samples[key] for key, days in persistence.items()
                if len(days) >= effective_min]

    def clean_stable_entries(self, min_days: int = 2) -> List[RibEntry]:
        return [entry for entry in self.stable_entries(min_days)
                if entry.is_clean()]

    def visible_as_links(self) -> Set[Tuple[int, int]]:
        links: Set[Tuple[int, int]] = set()
        for entry in self.all_entries():
            links.update(entry.as_path.links())
        return links


def route_by_route_lg(propagation, asn: int,
                      display_all_paths: bool = True) -> ASLookingGlass:
    """A validation LG for *asn* loaded one route at a time: every
    offered path of every origin (its Adj-RIB-In) when recorded, the
    best path otherwise, the ``(provenance, length)`` minimum flagged
    best."""
    lg = ASLookingGlass(asn=asn, display_all_paths=display_all_paths,
                        name=f"AS{asn}-lg")
    for origin in propagation.origins():
        routes = propagation.all_paths(asn, origin)
        if not routes:
            continue
        prefixes = propagation.origin_spec(origin).prefixes
        best_key = min(range(len(routes)), key=lambda i: (
            routes[i].provenance, len(routes[i].path)))
        for index, route in enumerate(routes):
            for prefix in prefixes:
                lg.load_route(LGRoute(
                    prefix=prefix, as_path=route.path,
                    communities=route.communities,
                    best=(index == best_key),
                    learned_from=route.learned_from))
    return lg


def dump_from_rows(rows: Iterable[Tuple]) -> RibDump:
    """A :class:`RibDump` of ``(peer, prefix, path tuple, bag,
    collector)`` rows, each value table interned in first-seen row order
    (the order :func:`~repro.collectors.archive.gather_feeds` keeps)."""
    tables: Tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
    peers: List[int] = []
    columns: Tuple[list, list, list, list] = ([], [], [], [])
    for peer, *values in rows:
        peers.append(peer)
        for column, table, value in zip(columns, tables, values):
            column.append(table.setdefault(value, len(table)))
    prefixes, paths, bags, collectors = (list(table) for table in tables)
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(path) for path in paths], out=offsets[1:])

    def ids(values):
        return np.asarray(values, dtype=np.int64)

    return RibDump(
        peer=ids(peers), prefix_id=ids(columns[0]), path_id=ids(columns[1]),
        bag_id=ids(columns[2]), coll_id=ids(columns[3]), prefixes=prefixes,
        path_offsets=offsets,
        path_values=ids([asn for path in paths for asn in path]),
        bags=bags, collectors=collectors)


def grouped_scan_rows(table, min_days: int) -> np.ndarray:
    """The stable filter as the grouped scan production ran before it
    stored the base dump once: every day's rows in day order, grouped
    by (peer, prefix id, path id), groups on at least ``min(min_days,
    days)`` distinct days kept at their first scanned position, in scan
    order."""
    days = list(table.days)
    scan = [table.day_rows(day) for day in days]
    if not days or not sum(len(rows) for rows in scan):
        return np.zeros(0, dtype=np.int64)
    effective_min = min(min_days, len(days))
    scan_pos = np.concatenate(scan)
    scan_day = np.repeat(np.asarray(days, dtype=np.int64),
                         [len(rows) for rows in scan])
    physical = table.physical(scan_pos)
    peer = table.peer[physical]
    prefix_id = table.prefix_id[physical]
    path_id = table.path_id[physical]
    order = np.lexsort((scan_day, path_id, prefix_id, peer))
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = ((peer[order][1:] != peer[order][:-1])
                     | (prefix_id[order][1:] != prefix_id[order][:-1])
                     | (path_id[order][1:] != path_id[order][:-1]))
    starts = np.flatnonzero(new_group)
    day_change = new_group.copy()
    day_change[1:] |= scan_day[order][1:] != scan_day[order][:-1]
    distinct_days = np.add.reduceat(day_change.astype(np.int64), starts)
    first_scan = np.minimum.reduceat(order, starts)
    return scan_pos[np.sort(first_scan[distinct_days >= effective_min])]


def traceroute_links_by_route(campaign, propagation) -> Set[Tuple[int, int]]:
    """The traceroute campaign's links hop by hop: every adjacent pair of
    every monitor's best route, resolved through the campaign's RS-hop
    rule (the seed's walk over route objects)."""
    links: Set[Tuple[int, int]] = set()
    for monitor in campaign.config.monitor_asns:
        for _origin, route in propagation.iter_routes_at(monitor):
            path = route.path
            for left, right in zip(path, path[1:]):
                if left != right:
                    links.update(campaign._resolve_hop(left, right))
    return links

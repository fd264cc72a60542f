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
* :func:`all_entries` and :func:`dump_for_day` — any archive's entries
  as objects;
* :func:`path_links` — the links an AS path reveals, path by path;
* :func:`grouped_scan_rows` — the stable filter as one grouped scan
  over every day's rows, which pins the production view's row
  positions, not just its entries;
* the scalar sanity filters of section 5 — :func:`is_reserved_asn`,
  :func:`is_private_asn` and :func:`is_routable_asn` per ASN,
  :func:`has_cycle`, :func:`has_reserved_asn` and :func:`is_clean` per
  AS path, :func:`entry_is_clean` per RIB entry — the references for
  the vectorised ``bgp.asn.routable_mask`` and
  ``bgp.attributes.clean_path_mask``.

The first two read only the object API every result offers, so they can
be fed either a production :class:`~repro.bgp.propagation.PropagationResult`
or the oracle :class:`~tests.oracle.propagation.ObjectResult`; the
random draws (transient sample and day) consume the RNG exactly as
production does.  :func:`dump_from_rows` builds a hand-made
:class:`~repro.collectors.archive.RibDump` for ``CollectorArchive.record``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bgp.asn import (
    _RESERVED_BLOCK,
    AS_TRANS,
    MAX_ASN,
    PRIVATE_ASN_32BIT_RANGE,
    PRIVATE_ASN_RANGE,
)
from repro.bgp.attributes import ASPath
from repro.bgp.messages import RibEntry
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import CLASS_CUSTOMER
from repro.collectors.archive import MeasurementWindow, RibDump
from repro.collectors.vantage_point import FeedType
from repro.ixp.looking_glass import ASLookingGlass, LGRoute

from tests.oracle.propagation import all_paths, origin_spec


# -- the scalar sanity filters -------------------------------------------------


def is_private_asn(asn: int) -> bool:
    """Return True if *asn* falls in a private-use range (RFC 6996)."""
    lo16, hi16 = PRIVATE_ASN_RANGE
    lo32, hi32 = PRIVATE_ASN_32BIT_RANGE
    return lo16 <= asn <= hi16 or lo32 <= asn <= hi32


def is_reserved_asn(asn: int) -> bool:
    """Return True if *asn* is reserved, unassigned, or otherwise should
    not appear in a public BGP AS path.

    This mirrors the paper's filtering step (section 5): AS 0, AS_TRANS
    (23456), the 63488-131071 block, 65535, 4294967295 and anything outside
    the 32-bit space are treated as reserved.
    """
    if asn <= 0 or asn > MAX_ASN:
        return True
    if asn == AS_TRANS:
        return True
    if asn == 0xFFFF or asn == MAX_ASN:
        return True
    lo, hi = _RESERVED_BLOCK
    return lo <= asn <= hi


def is_routable_asn(asn: int) -> bool:
    """Return True if *asn* may legitimately appear in a public AS path."""
    return not is_reserved_asn(asn) and not is_private_asn(asn)


def has_cycle(path: ASPath) -> bool:
    """True if a non-consecutive ASN repetition exists (a routing loop or
    path poisoning artefact, as opposed to benign prepending)."""
    if len(set(path.asns)) == len(path.asns):
        return False
    deduped = path.deduplicated().asns
    return len(set(deduped)) != len(deduped)


def has_reserved_asn(path: ASPath) -> bool:
    """True if the path contains a reserved, unassigned or private ASN."""
    return any(not is_routable_asn(asn) for asn in path.asns)


def is_clean(path: ASPath) -> bool:
    """True if the path passes the paper's sanity filters: non-empty, no
    reserved/private ASNs, no cycles."""
    return bool(path.asns) and not has_reserved_asn(path) \
        and not has_cycle(path)


def entry_is_clean(entry: RibEntry) -> bool:
    """True if the entry's AS path passes the sanity filters."""
    return is_clean(entry.as_path)


# -- archive readers -----------------------------------------------------------


def day_rows(table, day: int) -> np.ndarray:
    """Positions of *day*'s dump in a ``RibEntryTable``: the base rows,
    then that day's transient rows."""
    if day not in table.days:
        return np.empty(0, dtype=np.int64)
    count = table.base_count
    first = table.days.index(day) * count
    return np.concatenate((
        np.arange(first, first + count, dtype=np.int64),
        len(table.days) * count
        + np.flatnonzero(table.transient_day == day)))


def dump_for_day(archive, day: int) -> List[RibEntry]:
    """The RIB dump *archive* holds for *day*."""
    if isinstance(archive, ObjectArchive):
        return archive.dump_for_day(day)
    table = archive._table
    return table.entries(day_rows(table, day))


def all_entries(archive) -> List[RibEntry]:
    """Every RIB entry *archive* holds, day by day."""
    if isinstance(archive, ObjectArchive):
        return archive.all_entries()
    return [entry for day in sorted(archive._table.days)
            for entry in dump_for_day(archive, day)]


def path_links(path: ASPath) -> List[Tuple[int, int]]:
    """Adjacent AS pairs on the prepend-collapsed *path*, as sorted
    tuples (the links a public collector reveals)."""
    deduped = path.deduplicated().asns
    return [(min(left, right), max(left, right))
            for left, right in zip(deduped, deduped[1:])]


def exported_routes(vantage_point, propagation,
                    timestamp: float = 0.0) -> List[RibEntry]:
    """The RIB entries *vantage_point* exports, route by route."""
    entries: List[RibEntry] = []
    full = vantage_point.feed_type is FeedType.FULL
    for origin, route in propagation.iter_routes_at(vantage_point.asn):
        if not full and route.provenance > CLASS_CUSTOMER:
            continue
        for prefix in origin_spec(propagation, origin).prefixes:
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

    def dump_for_day(self, day: int) -> List[RibEntry]:
        return list(self._dumps.get(day, []))

    def all_entries(self) -> List[RibEntry]:
        return [entry for day in sorted(self._dumps)
                for entry in self._dumps[day]]

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
                if entry_is_clean(entry)]

    def visible_as_links(self) -> Set[Tuple[int, int]]:
        links: Set[Tuple[int, int]] = set()
        for entry in self.all_entries():
            links.update(path_links(entry.as_path))
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
        routes = all_paths(propagation, asn, origin)
        if not routes:
            continue
        prefixes = origin_spec(propagation, origin).prefixes
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
    scan = [day_rows(table, day) for day in days]
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

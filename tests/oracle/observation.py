"""The object observation plane, kept as the oracle.

Production builds the collector archive and the validation looking
glasses from route-block columns only
(:meth:`~repro.collectors.vantage_point.VantagePoint.export_rows`,
:class:`~repro.collectors.archive.RibEntryTable`,
:meth:`~repro.ixp.looking_glass.ASLookingGlass.load_route_blocks`).
This module is the seed's object implementation of the same steps:

* :class:`ObjectArchive` — one :class:`RibEntry` per (route, prefix)
  per day, exported from ``iter_routes_at`` route by route, with the
  dict-fold transient filter of section 5;
* :func:`route_by_route_lg` — a validation looking glass loaded one
  :class:`LGRoute` at a time from ``all_paths``.

Both read only the object API every result offers, so they can be fed
either a production :class:`~repro.bgp.propagation.PropagationResult`
or the oracle :class:`~tests.oracle.propagation.ObjectResult`; the
random draws (transient sample, update sample) consume the RNG exactly
as production does.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.messages import RibEntry, UpdateMessage
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import CLASS_CUSTOMER
from repro.collectors.archive import MeasurementWindow
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

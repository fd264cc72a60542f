"""Collector archives over a measurement window.

The paper accumulates daily table dumps and update messages for
1-7 May 2013 and filters out transient AS paths (paths observed so
briefly that they probably reflect misconfigured community values or
leaks).  :class:`CollectorArchive` reproduces that pipeline: it stores
dumps per day, synthesises update noise, and can return the stable
entries that survive the transient filter.

Like the propagation plane, the archive is columnar where it can be:
``collect`` on a block-backed :class:`PropagationResult` interns the
window into a :class:`RibEntryTable` (parallel peer / prefix-id /
path-id / bag-id / collector-id / timestamp columns over value tables)
instead of building one :class:`RibEntry` per day per route, and the
transient filter runs as one grouped numpy pass over the key columns.
``RibEntry`` survives as a lazy row view — materialised on first
object-level access, cached, value-identical to the eager path — and
the object implementation (``columnar=False``) is retained in full as
the reference oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.attributes import ASPath
from repro.bgp.messages import RibEntry, UpdateMessage, WithdrawMessage
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import PropagationResult
from repro.collectors.route_collector import RouteCollector


@dataclass(frozen=True)
class MeasurementWindow:
    """A measurement window of consecutive days (1-7 May 2013 style)."""

    start_day: int = 1
    num_days: int = 7
    label: str = "2013-05"

    def days(self) -> List[int]:
        """The day indices covered by the window."""
        return list(range(self.start_day, self.start_day + self.num_days))


class RibEntryTable:
    """Append-only column store of RIB entries with lazy row views.

    Row schema (parallel python-list columns, converted to numpy only
    for the grouped scans):

    ``peer``       vantage-point ASN
    ``prefix_id``  index into :attr:`prefixes` (value-interned)
    ``path_id``    index into :attr:`paths` (interned by ASN tuple; one
                   shared :class:`ASPath` object per id, which is what
                   lets downstream consumers memoise on path identity)
    ``bag_id``     index into :attr:`bags` (value-interned frozensets)
    ``coll_id``    index into :attr:`collectors`
    ``timestamp``  float timestamp of the row

    ``entry(row)`` materialises (and caches) one :class:`RibEntry` view;
    bulk consumers read the columns directly.  Pickling ships columns
    and value tables only — the row-view cache stays process-local.
    """

    __slots__ = ("peer", "prefix_id", "path_id", "bag_id", "coll_id",
                 "timestamp", "prefixes", "paths", "bags", "collectors",
                 "_prefix_ids", "_path_ids", "_bag_ids", "_coll_ids",
                 "_entries", "_key_arrays")

    def __init__(self) -> None:
        self.peer: List[int] = []
        self.prefix_id: List[int] = []
        self.path_id: List[int] = []
        self.bag_id: List[int] = []
        self.coll_id: List[int] = []
        self.timestamp: List[float] = []
        self.prefixes: List[Prefix] = []
        self.paths: List[ASPath] = []
        self.bags: List[frozenset] = []
        self.collectors: List[Optional[str]] = []
        self._prefix_ids: Dict[Prefix, int] = {}
        self._path_ids: Dict[Tuple[int, ...], int] = {}
        self._bag_ids: Dict[frozenset, int] = {}
        self._coll_ids: Dict[Optional[str], int] = {}
        self._entries: Dict[int, RibEntry] = {}
        self._key_arrays = None

    def __len__(self) -> int:
        return len(self.peer)

    # -- interning ---------------------------------------------------------

    def intern_prefix(self, prefix: Prefix) -> int:
        pid = self._prefix_ids.get(prefix)
        if pid is None:
            pid = self._prefix_ids[prefix] = len(self.prefixes)
            self.prefixes.append(prefix)
        return pid

    def intern_path_tuple(self, asns: Tuple[int, ...]) -> int:
        pid = self._path_ids.get(asns)
        if pid is None:
            pid = self._path_ids[asns] = len(self.paths)
            self.paths.append(ASPath.from_tuple(asns))
        return pid

    def intern_path(self, path: ASPath) -> int:
        pid = self._path_ids.get(path.asns)
        if pid is None:
            pid = self._path_ids[path.asns] = len(self.paths)
            self.paths.append(path)
        return pid

    def intern_bag(self, communities: frozenset) -> int:
        bid = self._bag_ids.get(communities)
        if bid is None:
            bid = self._bag_ids[communities] = len(self.bags)
            self.bags.append(communities)
        return bid

    def intern_collector(self, name: Optional[str]) -> int:
        cid = self._coll_ids.get(name)
        if cid is None:
            cid = self._coll_ids[name] = len(self.collectors)
            self.collectors.append(name)
        return cid

    # -- appending ---------------------------------------------------------

    def append(self, peer: int, prefix_id: int, path_id: int, bag_id: int,
               coll_id: int, timestamp: float) -> int:
        """Append one row of already-interned ids; returns its position."""
        row = len(self.peer)
        self.peer.append(peer)
        self.prefix_id.append(prefix_id)
        self.path_id.append(path_id)
        self.bag_id.append(bag_id)
        self.coll_id.append(coll_id)
        self.timestamp.append(timestamp)
        return row

    def append_entry(self, entry: RibEntry) -> int:
        """Append a :class:`RibEntry`, interning its values; the entry
        object itself becomes the row's cached view."""
        row = self.append(entry.peer_asn,
                          self.intern_prefix(entry.prefix),
                          self.intern_path(entry.as_path),
                          self.intern_bag(entry.communities),
                          self.intern_collector(entry.collector),
                          entry.timestamp)
        self._entries[row] = entry
        return row

    def extend(self, peers: Sequence[int], prefix_ids: Sequence[int],
               path_ids: Sequence[int], bag_ids: Sequence[int],
               coll_ids: Sequence[int], timestamp: float) -> int:
        """Append a whole dump of already-interned rows at *timestamp*;
        returns the position of the first appended row."""
        start = len(self.peer)
        self.peer.extend(peers)
        self.prefix_id.extend(prefix_ids)
        self.path_id.extend(path_ids)
        self.bag_id.extend(bag_ids)
        self.coll_id.extend(coll_ids)
        self.timestamp.extend([timestamp] * len(peers))
        return start

    # -- reading -----------------------------------------------------------

    def entry(self, row: int) -> RibEntry:
        """The (cached) :class:`RibEntry` view of *row*."""
        entry = self._entries.get(row)
        if entry is None:
            entry = self._entries[row] = RibEntry(
                peer_asn=self.peer[row],
                prefix=self.prefixes[self.prefix_id[row]],
                as_path=self.paths[self.path_id[row]],
                communities=self.bags[self.bag_id[row]],
                collector=self.collectors[self.coll_id[row]],
                timestamp=self.timestamp[row],
            )
        return entry

    def key_arrays(self):
        """``(peer, prefix_id, path_id)`` as numpy columns — the
        transient-filter grouping key — cached per row count."""
        count = len(self.peer)
        cached = self._key_arrays
        if cached is None or cached[0] != count:
            cached = self._key_arrays = (
                count,
                np.asarray(self.peer, dtype=np.int64),
                np.asarray(self.prefix_id, dtype=np.int64),
                np.asarray(self.path_id, dtype=np.int64))
        return cached[1], cached[2], cached[3]

    # -- pickling (view cache and array cache stay process-local) ----------

    def __getstate__(self):
        return (self.peer, self.prefix_id, self.path_id, self.bag_id,
                self.coll_id, self.timestamp, self.prefixes, self.paths,
                self.bags, self.collectors)

    def __setstate__(self, state) -> None:
        (self.peer, self.prefix_id, self.path_id, self.bag_id,
         self.coll_id, self.timestamp, self.prefixes, self.paths,
         self.bags, self.collectors) = state
        self._prefix_ids = {p: i for i, p in enumerate(self.prefixes)}
        self._path_ids = {p.asns: i for i, p in enumerate(self.paths)}
        self._bag_ids = {b: i for i, b in enumerate(self.bags)}
        self._coll_ids = {c: i for i, c in enumerate(self.collectors)}
        self._entries = {}
        self._key_arrays = None

    def __repr__(self) -> str:
        return (f"RibEntryTable({len(self.peer)} rows, "
                f"{len(self.prefixes)} prefixes, {len(self.paths)} paths, "
                f"{len(self.bags)} bags)")


class CollectorArchive:
    """Archived dumps and updates of one or more collectors.

    ``columnar=None`` (the default) auto-selects the column-store
    representation when numpy is importable and the propagation result
    is block-backed; ``columnar=False`` pins the object representation
    — the reference oracle the differential tests compare against.
    """

    def __init__(self, collectors: Iterable[RouteCollector],
                 window: Optional[MeasurementWindow] = None,
                 seed: int = 7,
                 columnar: Optional[bool] = None) -> None:
        self.collectors = list(collectors)
        self.window = window or MeasurementWindow()
        self._rng = random.Random(seed)
        self._columnar = True if columnar is None else columnar
        #: day -> list of RIB entries (object mode)
        self._dumps: Dict[int, List[RibEntry]] = {}
        #: column store + day -> row positions (columnar mode); exactly
        #: one of (_dumps, _table) is ever populated.
        self._table: Optional[RibEntryTable] = None
        self._day_rows: Dict[int, List[int]] = {}
        self._updates: List[UpdateMessage] = []
        #: min_days -> stable / clean-stable entry lists (cleared on
        #: every archive mutation).
        self._stable_cache: Dict[int, List[RibEntry]] = {}
        self._clean_cache: Dict[int, List[RibEntry]] = {}

    # -- population ------------------------------------------------------------------

    def collect(self, propagation: PropagationResult,
                transient_fraction: float = 0.0) -> None:
        """Record a table dump for every day of the window.

        ``transient_fraction`` injects short-lived entries (present on a
        single day only) to exercise the transient-path filter.
        """
        self._invalidate()
        if self._columnar and self._table is None and not self._dumps \
                and self._collect_columnar(propagation, transient_fraction):
            return
        self._demote_to_objects()
        base_entries: List[RibEntry] = []
        for collector in self.collectors:
            base_entries.extend(collector.table_dump(propagation))
        for day in self.window.days():
            day_entries = [RibEntry(
                peer_asn=e.peer_asn, prefix=e.prefix, as_path=e.as_path,
                communities=e.communities, collector=e.collector,
                timestamp=float(day)) for e in base_entries]
            self._dumps[day] = day_entries
        if transient_fraction > 0 and base_entries:
            self._inject_transients(base_entries, transient_fraction)
        self._synthesise_updates(base_entries)

    def _collect_columnar(self, propagation: PropagationResult,
                          transient_fraction: float) -> bool:
        """Columnar ``collect``: intern every vantage point's feed once,
        then reference the shared base columns from each day's dump.

        Commits nothing (and returns False) when any collector cannot
        export columns — the object path then runs instead.  The RNG is
        first consumed after the commit point, so a fallback collect
        draws the exact same sample sequence.
        """
        table = RibEntryTable()
        base: Tuple[List[int], List[int], List[int], List[int], List[int]] = \
            ([], [], [], [], [])
        for collector in self.collectors:
            coll_id = table.intern_collector(collector.name)
            rows = collector.export_rows(propagation, table)
            if rows is None:
                return False
            peers, prefix_ids, path_ids, bag_ids = rows
            base[0].extend(peers)
            base[1].extend(prefix_ids)
            base[2].extend(path_ids)
            base[3].extend(bag_ids)
            base[4].extend([coll_id] * len(peers))
        self._table = table
        self._day_rows = {}
        count = len(base[0])
        for day in self.window.days():
            start = table.extend(base[0], base[1], base[2], base[3],
                                 base[4], float(day))
            self._day_rows[day] = list(range(start, start + count))
        if transient_fraction > 0 and count:
            self._inject_transients_columnar(base, transient_fraction)
        self._synthesise_updates_columnar(base)
        return True

    def add_entry(self, day: int, entry: RibEntry) -> None:
        """Add a single entry to a specific day's dump."""
        self._invalidate()
        if self._table is not None:
            row = self._table.append_entry(entry)
            self._day_rows.setdefault(day, []).append(row)
        else:
            self._dumps.setdefault(day, []).append(entry)

    def _invalidate(self) -> None:
        """Drop the stable-entry memos after an archive mutation."""
        self._stable_cache.clear()
        self._clean_cache.clear()

    def _demote_to_objects(self) -> None:
        """Materialise the column store into per-day entry lists.

        Escape hatch for call patterns the columnar mode does not model
        (a second ``collect`` on a populated archive); day order and
        per-day row order are preserved exactly.
        """
        if self._table is None:
            return
        table, self._table = self._table, None
        day_rows, self._day_rows = self._day_rows, {}
        for day, rows in day_rows.items():
            self._dumps[day] = [table.entry(row) for row in rows]

    def _inject_transients(self, base_entries: Sequence[RibEntry],
                           fraction: float) -> None:
        count = max(1, int(len(base_entries) * fraction))
        chosen = self._rng.sample(list(base_entries), min(count, len(base_entries)))
        day = self._rng.choice(self.window.days())
        for entry in chosen:
            # A transient: same prefix/VP but a slightly different, short-lived path.
            mangled_path = ASPath(entry.as_path.asns[:1] + entry.as_path.asns)
            self._dumps[day].append(RibEntry(
                peer_asn=entry.peer_asn, prefix=entry.prefix,
                as_path=mangled_path, communities=entry.communities,
                collector=entry.collector, timestamp=float(day)))

    def _inject_transients_columnar(self, base, fraction: float) -> None:
        """Columnar transient injection: identical RNG draws to the
        object path — ``sample``/``choice`` outcomes depend only on the
        population size, so sampling row indices picks the same rows
        the object path picks entries."""
        peers, prefix_ids, path_ids, bag_ids, coll_ids = base
        count = max(1, int(len(peers) * fraction))
        chosen = self._rng.sample(range(len(peers)), min(count, len(peers)))
        day = self._rng.choice(self.window.days())
        table = self._table
        day_rows = self._day_rows[day]
        timestamp = float(day)
        for i in chosen:
            asns = table.paths[path_ids[i]].asns
            mangled = table.intern_path_tuple(asns[:1] + asns)
            day_rows.append(table.append(
                peers[i], prefix_ids[i], mangled, bag_ids[i],
                coll_ids[i], timestamp))

    def _synthesise_updates(self, base_entries: Sequence[RibEntry]) -> None:
        if not base_entries:
            return
        sample_size = min(len(base_entries), max(1, len(base_entries) // 20))
        for entry in self._rng.sample(list(base_entries), sample_size):
            day = self._rng.choice(self.window.days())
            self._updates.append(UpdateMessage(
                timestamp=day + self._rng.random(),
                peer_asn=entry.peer_asn,
                prefix=entry.prefix,
                as_path=entry.as_path,
                communities=entry.communities,
                collector=entry.collector,
            ))

    def _synthesise_updates_columnar(self, base) -> None:
        peers, prefix_ids, path_ids, bag_ids, coll_ids = base
        if not peers:
            return
        table = self._table
        days = self.window.days()
        sample_size = min(len(peers), max(1, len(peers) // 20))
        for i in self._rng.sample(range(len(peers)), sample_size):
            day = self._rng.choice(days)
            self._updates.append(UpdateMessage(
                timestamp=day + self._rng.random(),
                peer_asn=peers[i],
                prefix=table.prefixes[prefix_ids[i]],
                as_path=table.paths[path_ids[i]],
                communities=table.bags[bag_ids[i]],
                collector=table.collectors[coll_ids[i]],
            ))

    # -- read API ---------------------------------------------------------------------

    def dump_for_day(self, day: int) -> List[RibEntry]:
        """The RIB dump archived for *day*."""
        if self._table is not None:
            table = self._table
            return [table.entry(row) for row in self._day_rows.get(day, ())]
        return list(self._dumps.get(day, []))

    def all_entries(self) -> List[RibEntry]:
        """Every archived RIB entry across the window."""
        result: List[RibEntry] = []
        if self._table is not None:
            table = self._table
            for day in sorted(self._day_rows):
                result.extend(table.entry(row)
                              for row in self._day_rows[day])
            return result
        for day in sorted(self._dumps):
            result.extend(self._dumps[day])
        return result

    def updates(self) -> List[UpdateMessage]:
        """The archived update messages."""
        return list(self._updates)

    def stable_entries(self, min_days: int = 2) -> List[RibEntry]:
        """Entries whose (vantage point, prefix, path) persisted for at
        least *min_days* days — the transient-path filter of section 5.

        The result is memoised per archive state (and per *min_days*):
        every inference run re-reads the same window, so the filter
        walk runs once, not once per run.  Treat the returned list as
        read-only; it is invalidated by :meth:`collect`/:meth:`add_entry`.
        """
        cached = self._stable_cache.get(min_days)
        if cached is not None:
            return cached
        if self._table is not None:
            result = self._stable_columnar(min_days)
        else:
            persistence: Dict[Tuple[int, Prefix, Tuple[int, ...]], Set[int]] = {}
            samples: Dict[Tuple[int, Prefix, Tuple[int, ...]], RibEntry] = {}
            for day, entries in self._dumps.items():
                for entry in entries:
                    key = (entry.peer_asn, entry.prefix, entry.as_path.asns)
                    persistence.setdefault(key, set()).add(day)
                    samples.setdefault(key, entry)
            effective_min = min(min_days, len(self._dumps)) if self._dumps else min_days
            result = [samples[key] for key, days in persistence.items()
                      if len(days) >= effective_min]
        self._stable_cache[min_days] = result
        return result

    def _stable_columnar(self, min_days: int) -> List[RibEntry]:
        """The transient filter as one grouped pass over the key columns.

        The scan order (day insertion order, then per-day row order)
        matches the object walk over ``_dumps.items()``, groups are the
        same value keys — prefix and path ids are value-interned — and
        qualifying groups are emitted by first scan appearance, so the
        result list is element-for-element identical to the dict fold.
        """
        day_items = list(self._day_rows.items())
        effective_min = min(min_days, len(day_items)) if day_items else min_days
        total = sum(len(rows) for _day, rows in day_items)
        if not total:
            return []
        scan_pos = np.concatenate(
            [np.asarray(rows, dtype=np.int64) for _day, rows in day_items
             if rows])
        scan_day = np.concatenate(
            [np.full(len(rows), day, dtype=np.int64)
             for day, rows in day_items if rows])
        peer, prefix_id, path_id = self._table.key_arrays()
        peer = peer[scan_pos]
        prefix_id = prefix_id[scan_pos]
        path_id = path_id[scan_pos]
        order = np.lexsort((scan_day, path_id, prefix_id, peer))
        speer = peer[order]
        sprefix = prefix_id[order]
        spath = path_id[order]
        sday = scan_day[order]
        new_group = np.empty(len(order), dtype=bool)
        new_group[0] = True
        new_group[1:] = ((speer[1:] != speer[:-1])
                         | (sprefix[1:] != sprefix[:-1])
                         | (spath[1:] != spath[:-1]))
        starts = np.nonzero(new_group)[0]
        day_change = new_group.copy()
        day_change[1:] |= sday[1:] != sday[:-1]
        distinct_days = np.add.reduceat(
            day_change.astype(np.int64), starts)
        first_scan = np.minimum.reduceat(order, starts)
        selected = np.sort(first_scan[distinct_days >= effective_min])
        entry = self._table.entry
        positions = scan_pos[selected].tolist()
        return [entry(position) for position in positions]

    def clean_stable_entries(self, min_days: int = 2) -> List[RibEntry]:
        """Stable entries that also pass the reserved-ASN / cycle filters
        (memoised alongside :meth:`stable_entries`; the inference
        engine additionally keys its context-level observation planes
        on this list's identity, which the memo keeps stable).

        Cleanliness itself is memoised per shared ``ASPath`` object
        (one per interned path id in columnar mode), so the filter
        walks each distinct path once, not once per entry."""
        cached = self._clean_cache.get(min_days)
        if cached is not None:
            return cached
        result = [entry for entry in self.stable_entries(min_days)
                  if entry.is_clean()]
        self._clean_cache[min_days] = result
        return result

    def visible_as_links(self) -> Set[Tuple[int, int]]:
        """AS links visible anywhere in the archived dumps."""
        links: Set[Tuple[int, int]] = set()
        if self._table is not None:
            # Every interned path is referenced by at least one row, so
            # the union over the path table equals the per-entry union.
            for path in self._table.paths:
                links.update(path.links())
            return links
        for entry in self.all_entries():
            links.update(entry.as_path.links())
        return links

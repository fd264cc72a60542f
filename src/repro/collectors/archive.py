"""Collector archives over a measurement window.

The paper accumulates daily table dumps and update messages for
1-7 May 2013 and filters out transient AS paths (paths observed so
briefly that they probably reflect misconfigured community values or
leaks).  :class:`CollectorArchive` reproduces that pipeline: it stores
dumps per day, synthesises update noise, and can return the stable
entries that survive the transient filter.

The archive is one column store.  ``collect`` interns every vantage
point's feed, straight from the propagation result's route-block
columns, into a :class:`RibEntryTable` (parallel peer / prefix-id /
path-id / bag-id / collector-id / timestamp columns over value tables)
instead of building one :class:`RibEntry` per day per route, and the
transient filter runs as one grouped numpy pass over the key columns.
The stable selections are :class:`StableEntries` views: row positions
over the table, which the inference engine reads column by column.
``RibEntry`` exists only as a lazy row view, materialised on first
object-level access and cached.
"""

from __future__ import annotations

import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.attributes import ASPath
from repro.bgp.messages import RibEntry, UpdateMessage
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


class StableEntries(SequenceABC):
    """A read-only sequence of archived rows: the result of the stable
    selections (:meth:`CollectorArchive.stable_entries`,
    :meth:`CollectorArchive.clean_stable_entries`).

    ``rows`` holds the selected row positions of ``table`` in selection
    order (a read-only int64 array).  Indexing or iterating the view
    materialises each row's cached :class:`RibEntry`
    (:meth:`RibEntryTable.entry`); bulk readers such as
    :func:`~repro.core.planes.extract_passive_planes` read the table's
    columns at ``rows`` and never build one.
    """

    __slots__ = ("table", "rows")

    def __init__(self, table: RibEntryTable, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        rows.flags.writeable = False
        self.table = table
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            entry = self.table.entry
            return [entry(row) for row in self.rows[index].tolist()]
        return self.table.entry(int(self.rows[index]))

    def __iter__(self) -> Iterator[RibEntry]:
        return map(self.table.entry, self.rows.tolist())

    def __repr__(self) -> str:
        return f"StableEntries({len(self.rows)} rows)"


class CollectorArchive:
    """Archived dumps and updates of one or more collectors.

    An archive holds one measurement window of one propagation result:
    :meth:`collect` runs once, and a second call raises ``ValueError``.
    """

    def __init__(self, collectors: Iterable[RouteCollector],
                 window: Optional[MeasurementWindow] = None,
                 seed: int = 7) -> None:
        self.collectors = list(collectors)
        self.window = window or MeasurementWindow()
        self._rng = random.Random(seed)
        self._table = RibEntryTable()
        #: day -> row positions of that day's dump in ``_table``.
        self._day_rows: Dict[int, List[int]] = {}
        self._updates: List[UpdateMessage] = []
        self._collected = False
        #: min_days -> stable / clean-stable row views.
        self._stable_cache: Dict[int, StableEntries] = {}
        self._clean_cache: Dict[int, StableEntries] = {}

    # -- population ------------------------------------------------------------------

    def collect(self, propagation: PropagationResult,
                transient_fraction: float = 0.0) -> None:
        """Record a table dump for every day of the window.

        Every vantage point's feed is interned once; each day's dump
        references the shared base rows.  ``transient_fraction`` injects
        short-lived entries (present on a single day only) to exercise
        the transient-path filter.
        """
        if self._collected:
            raise ValueError("archive already collected; build a new "
                             "CollectorArchive per propagation result")
        self._collected = True
        self._stable_cache.clear()
        self._clean_cache.clear()
        table = self._table
        base: Tuple[List[int], List[int], List[int], List[int], List[int]] = \
            ([], [], [], [], [])
        for collector in self.collectors:
            coll_id = table.intern_collector(collector.name)
            peers, prefix_ids, path_ids, bag_ids = \
                collector.export_rows(propagation, table)
            base[0].extend(peers)
            base[1].extend(prefix_ids)
            base[2].extend(path_ids)
            base[3].extend(bag_ids)
            base[4].extend([coll_id] * len(peers))
        count = len(base[0])
        for day in self.window.days():
            start = table.extend(base[0], base[1], base[2], base[3],
                                 base[4], float(day))
            self._day_rows[day] = list(range(start, start + count))
        if transient_fraction > 0 and count:
            self._inject_transients(base, transient_fraction)
        self._synthesise_updates(base)

    def _inject_transients(self, base, fraction: float) -> None:
        """Append, on one random day, a short-lived variant (first hop
        prepended) of a random sample of the base rows."""
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

    def _synthesise_updates(self, base) -> None:
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
        entry = self._table.entry
        return [entry(row) for row in self._day_rows.get(day, ())]

    def all_entries(self) -> List[RibEntry]:
        """Every archived RIB entry across the window."""
        entry = self._table.entry
        return [entry(row) for day in sorted(self._day_rows)
                for row in self._day_rows[day]]

    def updates(self) -> List[UpdateMessage]:
        """The archived update messages."""
        return list(self._updates)

    def stable_entries(self, min_days: int = 2) -> StableEntries:
        """Entries whose (vantage point, prefix, path) persisted for at
        least *min_days* days — the transient-path filter of section 5.

        The filter is one grouped pass over the key columns: rows are
        scanned in day order, then per-day row order; groups are value
        keys (prefix and path ids are value-interned); qualifying
        groups are emitted by first scan appearance.  The result is a
        read-only :class:`StableEntries` view memoised per *min_days* —
        every inference run re-reads the same window, so the filter
        runs once, not once per run.
        """
        cached = self._stable_cache.get(min_days)
        if cached is not None:
            return cached
        day_items = list(self._day_rows.items())
        effective_min = min(min_days, len(day_items)) if day_items else min_days
        total = sum(len(rows) for _day, rows in day_items)
        if not total:
            self._stable_cache[min_days] = result = StableEntries(
                self._table, np.zeros(0, dtype=np.int64))
            return result
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
        result = StableEntries(self._table, scan_pos[selected])
        self._stable_cache[min_days] = result
        return result

    def clean_stable_entries(self, min_days: int = 2) -> StableEntries:
        """Stable entries that also pass the reserved-ASN / cycle filters
        (memoised alongside :meth:`stable_entries`; the inference
        engine additionally keys its context-level observation planes
        on this view's identity, which the memo keeps stable).

        Cleanliness is a per-path mask over the distinct stable path
        ids (memoised per shared ``ASPath`` object), so the filter
        walks each distinct path once, not once per entry."""
        cached = self._clean_cache.get(min_days)
        if cached is not None:
            return cached
        stable = self.stable_entries(min_days).rows
        table = self._table
        path_ids = table.key_arrays()[2][stable]
        clean = np.zeros(len(table.paths), dtype=bool)
        distinct = np.unique(path_ids)
        clean[distinct] = [table.paths[path_id].is_clean()
                           for path_id in distinct.tolist()]
        result = StableEntries(table, stable[clean[path_ids]])
        self._clean_cache[min_days] = result
        return result

    def visible_as_links(self) -> Set[Tuple[int, int]]:
        """AS links visible anywhere in the archived dumps."""
        # Every interned path is referenced by at least one row, so the
        # union over the path table equals the per-entry union.
        links: Set[Tuple[int, int]] = set()
        for path in self._table.paths:
            links.update(path.links())
        return links

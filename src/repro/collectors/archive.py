"""Collector archives over a measurement window.

The paper accumulates daily table dumps and update messages for
1-7 May 2013 and filters out transient AS paths (paths observed so
briefly that they probably reflect misconfigured community values or
leaks).  :class:`CollectorArchive` reproduces that pipeline: it stores
dumps per day, injects transient entries, and can return the stable
entries that survive the transient filter.

The archive is one column store.  :func:`gather_feeds` gathers every
vantage point's feed from the propagation result's
:class:`~repro.runtime.fragments.ObservationIndex` into a
:class:`RibDump` (numpy peer / prefix-id / path-id / bag-id /
collector-id columns over value tables, one row per exported (route,
prefix)).  The window repeats that dump every day, so a
:class:`RibEntryTable` stores it once, plus the transient rows of the
one day they were injected; the stable selections follow from the base
rows and those differences.  They are :class:`StableEntries` views: row
positions over the table, which the inference engine reads column by
column.  ``RibEntry`` exists only as a lazy row view, materialised on
first object-level access and cached.
"""

from __future__ import annotations

import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.bgp.attributes import ASPath, clean_path_mask
from repro.bgp.messages import RibEntry
from repro.bgp.propagation import CLASS_CUSTOMER, PropagationResult
from repro.collectors.route_collector import RouteCollector
from repro.collectors.vantage_point import FeedType
from repro.runtime.fragments import (
    distinct_links,
    first_seen,
    intern_rows,
    ragged_gather,
    sorted_member,
)


@dataclass(frozen=True)
class MeasurementWindow:
    """A measurement window of consecutive days (1-7 May 2013 style)."""

    start_day: int = 1
    num_days: int = 7
    label: str = "2013-05"

    def days(self) -> List[int]:
        """The day indices covered by the window."""
        return list(range(self.start_day, self.start_day + self.num_days))


class RibDump(NamedTuple):
    """One table dump of the collectors as columns over value tables.

    Rows are parallel int64 columns: ``peer`` (vantage-point ASN),
    ``prefix_id`` (into ``prefixes``), ``path_id`` (into the CSR path
    table ``path_offsets``/``path_values``, paths observer-first),
    ``bag_id`` (into ``bags``) and ``coll_id`` (into ``collectors``).
    Every value table is interned by value in first-seen row order.
    """

    peer: np.ndarray
    prefix_id: np.ndarray
    path_id: np.ndarray
    bag_id: np.ndarray
    coll_id: np.ndarray
    prefixes: List[object]
    path_offsets: np.ndarray
    path_values: np.ndarray
    bags: List[frozenset]
    collectors: List[Optional[str]]

    @classmethod
    def empty(cls) -> "RibDump":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, none, none, none, [],
                   np.zeros(1, dtype=np.int64), none, [], [])


def gather_feeds(collectors: Iterable[RouteCollector],
                 propagation: PropagationResult) -> RibDump:
    """The collectors' table dump, gathered from *propagation*.

    Each vantage point's feed is one best-side slice of the result's
    :class:`~repro.runtime.fragments.ObservationIndex` (its best routes
    in origin recording order); a customer-only feed keeps the routes
    learned from customers or originated.  Each route becomes one row
    per prefix of its origin (an origin without prefixes exports
    nothing).  Rows run collector by collector, vantage point by vantage
    point; prefixes, paths and bags are interned by value in that
    order, collectors by name in list order.
    """
    index = propagation.observation_index()
    origins = propagation.origin_prefixes()
    names: Dict[Optional[str], int] = {}
    asns: List[int] = []
    full: List[bool] = []
    coll: List[int] = []
    positions: List[np.ndarray] = []
    globs: List[np.ndarray] = []
    for collector in collectors:
        coll_id = names.setdefault(collector.name, len(names))
        for vantage_point in collector.vantage_points:
            pos, glob = index.best_rows(vantage_point.asn)
            asns.append(vantage_point.asn)
            full.append(vantage_point.feed_type is FeedType.FULL)
            coll.append(coll_id)
            positions.append(pos)
            globs.append(glob)
    if not positions or not sum(len(pos) for pos in positions):
        return RibDump.empty()._replace(collectors=list(names))
    counts = [len(pos) for pos in positions]
    pos = np.concatenate(positions)
    glob = np.concatenate(globs)
    columns = index.best_columns()
    keep = np.repeat(np.asarray(full, dtype=bool), counts) \
        | (columns.provenance[glob] <= CLASS_CUSTOMER)
    peer = np.repeat(np.asarray(asns, dtype=np.int64), counts)
    coll_id = np.repeat(np.asarray(coll, dtype=np.int64), counts)
    prefix_counts = origins.counts[pos]
    keep &= prefix_counts > 0
    pos, glob, peer, coll_id, prefix_counts = (
        pos[keep], glob[keep], peer[keep], coll_id[keep],
        prefix_counts[keep])

    # Paths: distinct best rows first, then their cells by value.
    row_ids, row_firsts = first_seen(glob)
    offsets, values = ragged_gather(columns.path_offsets,
                                    columns.path_values, glob[row_firsts])
    value_ids, value_firsts = intern_rows(offsets, values)
    path_offsets, path_values = ragged_gather(offsets, values, value_firsts)
    path_id = value_ids[row_ids]
    bag_of_route = columns.bag[glob]
    bag_id, bag_firsts = first_seen(bag_of_route)
    canonical = origins.ids_at(pos)
    prefix_id, prefix_firsts = first_seen(canonical)
    bags = index.bags
    return RibDump(
        peer=np.repeat(peer, prefix_counts),
        prefix_id=prefix_id,
        path_id=np.repeat(path_id, prefix_counts),
        bag_id=np.repeat(bag_id, prefix_counts),
        coll_id=np.repeat(coll_id, prefix_counts),
        prefixes=[origins.values[value]
                  for value in canonical[prefix_firsts].tolist()],
        path_offsets=path_offsets, path_values=path_values,
        bags=[bags[value] for value in bag_of_route[bag_firsts].tolist()],
        collectors=list(names))


class RibEntryTable:
    """The archived rows of one window: the base dump once, plus the
    transient rows, as numpy columns over the dump's value tables.

    Physical rows are the ``base_count`` dump rows followed by the
    transient rows (``peer``, ``prefix_id``, ``path_id``, ``bag_id``,
    ``coll_id`` columns; ``transient_day`` holds each transient row's
    day).  Row *positions* — what :meth:`entry` and :class:`StableEntries`
    take — number the window as if every day's dump were stored: base
    row ``i`` on the ``k``-th window day is position
    ``k * base_count + i``, transient row ``j`` is position
    ``num_days * base_count + j``; a row's timestamp is its day.

    Paths are one CSR table (``path_offsets``, ``path_values``); one
    shared :class:`ASPath` per path id is built on first use
    (:meth:`path`), which lets per-path memos work on identity.
    ``entry(row)`` materialises (and caches) one :class:`RibEntry` view;
    bulk consumers read the columns (:meth:`columns_at`).  Pickling ships
    columns and value tables only.
    """

    __slots__ = ("peer", "prefix_id", "path_id", "bag_id", "coll_id",
                 "transient_day", "prefixes", "path_offsets",
                 "path_values", "bags", "collectors", "days", "base_count",
                 "_paths", "_clean", "_entries")

    def __init__(self, dump: RibDump, days: Iterable[int],
                 transients: Optional[np.ndarray] = None,
                 transient_day: Optional[int] = None) -> None:
        """The window *days* of *dump*, plus, on *transient_day*, a
        short-lived variant (first hop prepended) of each base row in
        *transients*."""
        self.days = tuple(days)
        self.base_count = len(dump.peer)
        self.prefixes = dump.prefixes
        self.bags = dump.bags
        self.collectors = dump.collectors
        if transients is None or not len(transients):
            self.peer, self.prefix_id, self.path_id, self.bag_id, \
                self.coll_id = (dump.peer, dump.prefix_id, dump.path_id,
                                dump.bag_id, dump.coll_id)
            self.path_offsets = dump.path_offsets
            self.path_values = dump.path_values
            self.transient_day = np.empty(0, dtype=np.int64)
        else:
            self._add_transients(dump, np.asarray(transients,
                                                  dtype=np.int64))
            self.transient_day = np.full(len(transients), transient_day,
                                         dtype=np.int64)
        self._reset_caches()

    def _add_transients(self, dump: RibDump, sources: np.ndarray) -> None:
        """Physical columns with the transient rows appended, their
        prepended paths interned after the dump's in first-seen order."""
        offsets, values = dump.path_offsets, dump.path_values
        own_offsets, own_values = ragged_gather(offsets, values,
                                                dump.path_id[sources])
        lengths = np.diff(own_offsets)
        grown = lengths + (lengths > 0)
        mangled_offsets = np.zeros(len(sources) + 1, dtype=np.int64)
        np.cumsum(grown, out=mangled_offsets[1:])
        mangled = np.empty(int(mangled_offsets[-1]), dtype=np.int64)
        heads = mangled_offsets[:-1][lengths > 0]
        mangled[heads] = own_values[own_offsets[:-1][lengths > 0]]
        tails = np.ones(len(mangled), dtype=bool)
        tails[heads] = False
        mangled[tails] = own_values
        num_paths = len(offsets) - 1
        ids, firsts = intern_rows(
            np.concatenate((offsets, mangled_offsets[1:] + offsets[-1])),
            np.concatenate((values, mangled)))
        # The dump's paths are distinct, so they keep ids 0..n-1.
        new = firsts[num_paths:] - num_paths
        new_offsets, new_values = ragged_gather(mangled_offsets, mangled,
                                                new)
        self.path_offsets = np.concatenate(
            (offsets, new_offsets[1:] + offsets[-1]))
        self.path_values = np.concatenate((values, new_values))
        self.peer = np.concatenate((dump.peer, dump.peer[sources]))
        self.prefix_id = np.concatenate((dump.prefix_id,
                                         dump.prefix_id[sources]))
        self.path_id = np.concatenate((dump.path_id, ids[num_paths:]))
        self.bag_id = np.concatenate((dump.bag_id, dump.bag_id[sources]))
        self.coll_id = np.concatenate((dump.coll_id, dump.coll_id[sources]))

    def _reset_caches(self) -> None:
        self._paths: Optional[List[Optional[ASPath]]] = None
        self._clean: Optional[np.ndarray] = None
        self._entries: Dict[int, RibEntry] = {}

    def __len__(self) -> int:
        return len(self.days) * self.base_count + len(self.transient_day)

    @property
    def num_paths(self) -> int:
        """Number of distinct paths."""
        return len(self.path_offsets) - 1

    # -- row positions -----------------------------------------------------

    def physical(self, rows) -> np.ndarray:
        """The physical row of every position in *rows*."""
        rows = np.asarray(rows, dtype=np.int64)
        count = self.base_count
        end = len(self.days) * count
        return np.where(rows < end, rows % count, rows - end + count)

    def timestamps(self, rows) -> np.ndarray:
        """Every position's timestamp (its day) as float64."""
        rows = np.asarray(rows, dtype=np.int64)
        count = self.base_count
        end = len(self.days) * count
        base = rows < end
        days = np.empty(len(rows), dtype=np.float64)
        days[base] = np.asarray(self.days, dtype=np.float64)[
            rows[base] // count]
        days[~base] = self.transient_day[rows[~base] - end]
        return days

    def columns_at(self, rows):
        """``(prefix_id, path_id, bag_id)`` columns at positions *rows*."""
        physical = self.physical(rows)
        return (self.prefix_id[physical], self.path_id[physical],
                self.bag_id[physical])

    # -- values ------------------------------------------------------------

    def path(self, path_id: int) -> ASPath:
        """The shared :class:`ASPath` of *path_id* (built once)."""
        paths = self._paths
        if paths is None:
            paths = self._paths = [None] * self.num_paths
        path = paths[path_id]
        if path is None:
            start, end = self.path_offsets[path_id:path_id + 2].tolist()
            path = paths[path_id] = ASPath.from_tuple(
                tuple(self.path_values[start:end].tolist()))
        return path

    def clean_paths(self) -> np.ndarray:
        """Per path id: does the path pass the reserved-ASN and cycle
        filters (:func:`~repro.bgp.attributes.clean_path_mask`)?  One
        vectorised pass over the path table, memoised."""
        if self._clean is None:
            self._clean = clean_path_mask(self.path_offsets,
                                          self.path_values)
            self._clean.flags.writeable = False
        return self._clean

    def visible_links(self) -> Set[Tuple[int, int]]:
        """Every link of every path (each path is referenced by a row)."""
        return distinct_links(self.path_offsets, self.path_values)

    # -- row views ---------------------------------------------------------

    def entries(self, rows) -> List[RibEntry]:
        """The (cached) :class:`RibEntry` views of positions *rows*."""
        rows = np.asarray(rows, dtype=np.int64)
        keys = rows.tolist()
        cache = self._entries
        found = [cache.get(row) for row in keys]
        missing = [i for i, entry in enumerate(found) if entry is None]
        if missing:
            wanted = rows[missing]
            physical = self.physical(wanted)
            prefixes, bags, collectors = (self.prefixes, self.bags,
                                          self.collectors)
            path = self.path
            for i, peer, prefix_id, path_id, bag_id, coll_id, stamp in zip(
                    missing, self.peer[physical].tolist(),
                    self.prefix_id[physical].tolist(),
                    self.path_id[physical].tolist(),
                    self.bag_id[physical].tolist(),
                    self.coll_id[physical].tolist(),
                    self.timestamps(wanted).tolist()):
                found[i] = cache[keys[i]] = RibEntry(
                    peer_asn=peer, prefix=prefixes[prefix_id],
                    as_path=path(path_id), communities=bags[bag_id],
                    collector=collectors[coll_id], timestamp=stamp)
        return found

    # -- pickling (row views and memos stay process-local) -----------------

    def __getstate__(self):
        return (self.peer, self.prefix_id, self.path_id, self.bag_id,
                self.coll_id, self.transient_day, self.prefixes,
                self.path_offsets, self.path_values, self.bags,
                self.collectors, self.days, self.base_count)

    def __setstate__(self, state) -> None:
        (self.peer, self.prefix_id, self.path_id, self.bag_id,
         self.coll_id, self.transient_day, self.prefixes,
         self.path_offsets, self.path_values, self.bags, self.collectors,
         self.days, self.base_count) = state
        self._reset_caches()

    def __repr__(self) -> str:
        return (f"RibEntryTable({len(self)} rows, {self.base_count} per "
                f"day, {len(self.prefixes)} prefixes, {self.num_paths} "
                f"paths, {len(self.bags)} bags)")


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
            return self.table.entries(self.rows[index])
        return self.table.entries(self.rows[[index]])[0]

    def __iter__(self) -> Iterator[RibEntry]:
        return iter(self.table.entries(self.rows))

    def __repr__(self) -> str:
        return f"StableEntries({len(self.rows)} rows)"


class CollectorArchive:
    """Archived dumps of one or more collectors.

    An archive holds one measurement window of one propagation result:
    :meth:`collect` (or :meth:`record`) runs once, and a second call
    raises ``ValueError``.
    """

    def __init__(self, collectors: Iterable[RouteCollector],
                 window: Optional[MeasurementWindow] = None,
                 seed: int = 7) -> None:
        self.collectors = list(collectors)
        self.window = window or MeasurementWindow()
        self._rng = random.Random(seed)
        self._table = RibEntryTable(RibDump.empty(), self.window.days())
        self._collected = False
        #: first base row of every distinct (peer, prefix, path) key,
        #: and first transient row of every key no base row holds.
        self._firsts: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: min_days -> clean-stable row view.
        self._clean_cache: Dict[int, StableEntries] = {}

    # -- population ------------------------------------------------------------------

    def collect(self, propagation: PropagationResult,
                transient_fraction: float = 0.0) -> None:
        """Archive the collectors' feeds from *propagation* for every day
        of the window (:func:`gather_feeds`, then :meth:`record`)."""
        self._check_fresh()
        self.record(gather_feeds(self.collectors, propagation),
                    transient_fraction)

    def record(self, dump: RibDump, transient_fraction: float = 0.0) -> None:
        """Archive *dump* as every day's table dump.

        ``transient_fraction`` injects short-lived entries: on one
        random day, a variant (first hop prepended) of a random sample
        of the base rows, which exercises the transient-path filter.
        """
        self._check_fresh()
        self._collected = True
        days = self.window.days()
        count = len(dump.peer)
        transients = None
        transient_day = None
        if transient_fraction > 0 and count:
            size = max(1, int(count * transient_fraction))
            transients = np.asarray(
                self._rng.sample(range(count), min(size, count)),
                dtype=np.int64)
            transient_day = self._rng.choice(days)
        self._table = RibEntryTable(dump, days, transients, transient_day)

    def _check_fresh(self) -> None:
        if self._collected:
            raise ValueError("archive already collected; build a new "
                             "CollectorArchive per propagation result")

    # -- read API ---------------------------------------------------------------------

    def _first_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Positions of the first row of every distinct (peer, prefix,
        path) key: base keys (day-one positions, ascending), then the
        transient keys no base row holds (ascending)."""
        if self._firsts is None:
            table = self._table
            count = table.base_count
            keys = _row_keys(table.peer, table.prefix_id, table.path_id,
                             len(table.prefixes), table.num_paths)
            distinct, base = np.unique(keys[:count], return_index=True)
            fresh = np.flatnonzero(~sorted_member(keys[count:], distinct))
            _, transient = np.unique(keys[count:][fresh], return_index=True)
            self._firsts = (
                np.sort(base),
                len(table.days) * count + np.sort(fresh[transient]))
        return self._firsts

    def stable_entries(self, min_days: int = 2) -> StableEntries:
        """Entries whose (vantage point, prefix, path) persisted for at
        least *min_days* days — the transient-path filter of section 5.

        Every base row is on every window day, and every transient row
        on its one day, so a key persists for the whole window if a base
        row holds it and for one day otherwise: with ``min(min_days,
        window days)`` days required, the selection is the first base
        row of every base key, then (when one day suffices) the first
        transient row of every other key — the same rows, in the same
        order, as a grouped scan over every day's dump in day order.
        The result is a new read-only :class:`StableEntries` view on
        every call; :meth:`clean_stable_entries` memoises its own.
        """
        table = self._table
        days = len(table.days)
        if not days or not len(table):
            rows = np.zeros(0, dtype=np.int64)
        else:
            base, transient = self._first_rows()
            rows = np.concatenate((base, transient)) \
                if min(min_days, days) <= 1 else base
        return StableEntries(table, rows)

    def clean_stable_entries(self, min_days: int = 2) -> StableEntries:
        """Stable entries that also pass the reserved-ASN / cycle filters,
        memoised per *min_days*: the inference engine keys its
        context-level observation planes on this view's identity, which
        the memo keeps stable.

        Cleanliness is the table's per-path mask
        (:meth:`RibEntryTable.clean_paths`), read at the stable rows."""
        cached = self._clean_cache.get(min_days)
        if cached is not None:
            return cached
        stable = self.stable_entries(min_days).rows
        table = self._table
        path_ids = table.path_id[table.physical(stable)]
        result = self._clean_cache[min_days] = StableEntries(
            table, stable[table.clean_paths()[path_ids]])
        return result

    def visible_as_links(self) -> Set[Tuple[int, int]]:
        """AS links visible anywhere in the archived dumps."""
        return self._table.visible_links()


def _row_keys(peer, prefix_id, path_id, num_prefixes: int,
              num_paths: int) -> np.ndarray:
    """One int64 key per row, equal exactly for equal (peer, prefix,
    path) rows: (peer, path) pairs are ranked first, so every product
    stays below ``rows * max(num_paths, num_prefixes)``."""
    _, peer_rank = np.unique(peer, return_inverse=True)
    _, route_rank = np.unique(peer_rank.reshape(-1) * num_paths + path_id,
                              return_inverse=True)
    return route_rank.reshape(-1) * num_prefixes + prefix_id

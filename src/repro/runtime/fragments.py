"""Columnar route fragments: batches of propagated routes as arrays.

The propagation kernels already finish with fully interned per-node
state (route-key planes, path ids, bag ids).  Converting that state to
one ``PropagatedRoute`` object per recorded route — a Python loop with a
``PathStore.materialize`` call per row — was the dominant end-to-end
cost once the sweep itself went vectorized.  This module keeps the
fragments columnar instead:

* :class:`RouteBlock` — one origin's recorded routes as parallel numpy
  columns (``asn``, ``provenance``, ``learned_from``, ``bag_id``,
  ``pid``) plus a CSR-style ``(path_offsets, path_values)`` pair, with a
  block-local ``bag_values`` tuple so blocks are self-contained across
  process boundaries (store-level bag ids are not stable under
  re-interning).  A block behaves as a sequence of
  ``PropagatedRoute``s — rows are materialised lazily and cached — so
  every object-level consumer keeps working, while bulk consumers read
  the columns directly (or its cached packed link keys, the column the
  delta affected-set lookup reads).
* :func:`walk_paths` / :class:`PathTable` — ONE vectorized cons-chain
  walk over all path ids of a batch, replacing the per-route scalar
  ``materialize`` calls.  ``PathTable.gather`` then slices per-row CSR
  views out of the walked table with a single ragged gather.
* :func:`blocks_from_columns` — the one block assembler: a run of
  consecutive blocks from flat store-level columns, with a fixed number
  of numpy calls per run (not per block).
* :class:`ObservationIndex` — the per-observer index over a result's
  blocks, with both sides' route columns concatenated on first use;
  collector feeds are slices of it, and :class:`ObserverView` holds one
  observer's whole view as index arrays for a looking glass.
  :func:`intern_rows` and :func:`first_seen` intern gathered paths and
  ids by value in first-seen order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "RouteBlock",
    "PathTable",
    "ObservationIndex",
    "ObserverView",
    "OriginPrefixes",
    "SideColumns",
    "walk_paths",
    "blocks_from_columns",
    "distinct_links",
    "first_seen",
    "intern_rows",
    "key_links",
    "pack_links",
    "ragged_gather",
    "sorted_member",
    "unpack_links",
]

#: Largest value a link key packs (:func:`pack_links`): the 32-bit ASN
#: space.
MAX_KEYED = (1 << 32) - 1

#: ``RouteBlock._link_keys`` of a block whose pairs cannot be packed.
_UNKEYABLE = object()

#: Lazily resolved to avoid a module-level cycle: ``bgp.propagation``
#: imports this module, and only row materialisation needs the class.
_ROUTE_CLS = None


def _route_class():
    global _ROUTE_CLS
    if _ROUTE_CLS is None:
        from repro.bgp.propagation import PropagatedRoute
        _ROUTE_CLS = PropagatedRoute
    return _ROUTE_CLS


def walk_paths(heads, parents, pids):
    """Materialise cons chains *pids* into one CSR ``(offsets, values)``.

    This is the vectorized replacement for N scalar ``materialize``
    calls: two level-synchronous passes over the whole id set (first
    measuring chain lengths, then writing heads), each iterating only
    ``max path length`` times with numpy doing the per-chain work.
    """
    heads = np.asarray(heads, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    pids = np.asarray(pids, dtype=np.int64)
    count = len(pids)
    offsets = np.zeros(count + 1, dtype=np.int64)
    if count == 0:
        return offsets, np.empty(0, dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    cursor = pids.copy()
    alive = np.nonzero(cursor >= 0)[0]
    while len(alive):
        lengths[alive] += 1
        cursor[alive] = parents[cursor[alive]]
        alive = alive[cursor[alive] >= 0]
    np.cumsum(lengths, out=offsets[1:])
    values = np.empty(int(offsets[-1]), dtype=np.int64)
    cursor = pids.copy()
    position = offsets[:-1].copy()
    alive = np.nonzero(cursor >= 0)[0]
    while len(alive):
        values[position[alive]] = heads[cursor[alive]]
        position[alive] += 1
        cursor[alive] = parents[cursor[alive]]
        alive = alive[cursor[alive] >= 0]
    return offsets, values


class PathTable:
    """All paths of one batch, walked once and gathered per block.

    Built from a path store's ``(heads, parents)`` columns and the union
    of every pid a batch will record (negative ids — "no path" — are
    dropped and gather as empty rows).  Repeats are dropped by marking
    the store's cells, which also leaves the walked ids sorted.
    """

    __slots__ = ("_pids", "_offsets", "_values", "_lengths")

    def __init__(self, heads, parents, pids) -> None:
        pids = np.asarray(pids, dtype=np.int64)
        mark = np.zeros(len(heads), dtype=bool)
        mark[pids[pids >= 0]] = True
        self._pids = np.flatnonzero(mark)
        self._offsets, self._values = walk_paths(heads, parents, self._pids)
        self._lengths = np.diff(self._offsets)

    def gather(self, pids):
        """CSR ``(offsets, values)`` for *pids*, one ragged gather.

        Every non-negative pid must be in the table; negative pids
        yield empty paths (origin rows have no received path).
        """
        pids = np.asarray(pids, dtype=np.int64)
        count = len(pids)
        offsets = np.zeros(count + 1, dtype=np.int64)
        if count == 0 or len(self._pids) == 0:
            return offsets, np.empty(0, dtype=np.int64)
        valid = pids >= 0
        index = np.searchsorted(self._pids, pids)
        index[~valid] = 0
        lengths = np.where(valid, self._lengths[index], 0)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return offsets, np.empty(0, dtype=np.int64)
        starts = self._offsets[index]
        shift = np.repeat(starts - offsets[:-1], lengths)
        values = self._values[shift + np.arange(total, dtype=np.int64)]
        return offsets, values


class RouteBlock:
    """One origin's recorded routes as parallel columns.

    Column schema (all rows parallel):

    ``asn``           int64 — observer ASN of the route
    ``provenance``    int16 — CLASS_* the route was accepted as
    ``learned_from``  int64 — exporter ASN, ``-1`` for locally originated
    ``bag_id``        int32 — index into :attr:`bag_values` (block-local)
    ``pid``           int64 — batch-local path id (``-1`` when unknown,
                      e.g. blocks rebuilt from route objects)
    ``path_offsets``  int64, ``len+1`` — CSR row offsets into
    ``path_values``   int64 — concatenated AS paths (observer-first)

    The block is also a ``Sequence[PropagatedRoute]``: indexing
    materialises (and caches) one lazy row view, so call sites written
    against object fragments keep working unchanged.  Pickling ships
    only the arrays + bag values — caches never cross process
    boundaries.
    """

    __slots__ = ("asn", "provenance", "learned_from", "bag_id", "pid",
                 "path_offsets", "path_values", "bag_values",
                 "_rows", "_scalars", "_link_keys")

    def __init__(self, asn, provenance, learned_from, bag_id, pid,
                 path_offsets, path_values,
                 bag_values: Tuple[frozenset, ...]) -> None:
        self.asn = asn
        self.provenance = provenance
        self.learned_from = learned_from
        self.bag_id = bag_id
        self.pid = pid
        self.path_offsets = path_offsets
        self.path_values = path_values
        self.bag_values = bag_values
        self._rows: List[object] = None  # type: ignore[assignment]
        self._scalars = None
        self._link_keys = None

    # -- columnar accessors ------------------------------------------------

    def _scalar_columns(self):
        """Python-int copies of the columns for the row views (built
        once, cached)."""
        columns = self._scalars
        if columns is None:
            columns = self._scalars = (
                self.asn.tolist(), self.provenance.tolist(),
                self.learned_from.tolist(), self.bag_id.tolist(),
                self.path_offsets.tolist(), self.path_values.tolist())
        return columns

    def link_keys(self):
        """The undirected ASN pairs adjacent in the block's paths
        (within a row, prepends dropped) packed as uint64 keys
        ``(lo << 32) | hi`` (duplicates kept), or ``None`` when a pair holds a
        value outside ``[0, 2**32)`` — not an ASN; packing would collide.

        Built on first use (see :func:`key_links`) and cached: a block
        is immutable and delta replay reuses it by identity from result
        to result, so each block is keyed once in its life (pickling
        drops the cache).
        """
        if self._link_keys is None:
            key_links((self,))
        keys = self._link_keys
        return None if keys is _UNKEYABLE else keys

    # -- sequence protocol (lazy row views) --------------------------------

    def route(self, row: int):
        """The :class:`PropagatedRoute` view of *row* (built once)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [None] * len(self.asn)
        route = rows[row]
        if route is None:
            asns, provs, learned, bags, offsets, values = self._scalar_columns()
            exporter = learned[row]
            route = rows[row] = _route_class()(
                asn=asns[row],
                path=tuple(values[offsets[row]:offsets[row + 1]]),
                communities=self.bag_values[bags[row]],
                provenance=provs[row],
                learned_from=exporter if exporter >= 0 else None,
            )
        return route

    def __len__(self) -> int:
        return len(self.asn)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.route(row)
                    for row in range(*index.indices(len(self.asn)))]
        count = len(self.asn)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(index)
        return self.route(index)

    def __iter__(self) -> Iterator[object]:
        for row in range(len(self.asn)):
            yield self.route(row)

    # -- pickling (cache-free: blocks travel through the disk cache) -------

    def __getstate__(self):
        return (self.asn, self.provenance, self.learned_from, self.bag_id,
                self.pid, self.path_offsets, self.path_values,
                self.bag_values)

    def __setstate__(self, state) -> None:
        (self.asn, self.provenance, self.learned_from, self.bag_id,
         self.pid, self.path_offsets, self.path_values,
         self.bag_values) = state
        self._rows = None
        self._scalars = None
        self._link_keys = None


class SideColumns(NamedTuple):
    """One side's route columns, every block's rows concatenated in
    recording order (a row's *global* id is its position here)."""

    provenance: np.ndarray
    learned_from: np.ndarray
    #: index into :attr:`ObservationIndex.bags` (value-interned).
    bag: np.ndarray
    path_offsets: np.ndarray
    path_values: np.ndarray


class ObservationIndex:
    """Per-(observer, origin-position) CSR index over recorded blocks.

    Built once from the best/offered :class:`RouteBlock` pairs a
    propagation recorded (one pair per origin, in recording order), it
    answers every :class:`~repro.bgp.propagation.PropagationResult`
    query — "which routes does observer X hold, per origin" — straight
    from the columns.

    Layout: both sides are the row-wise concatenation of every block's
    rows; a row is named by its *global* id (its position in that
    concatenation) and carries a ``pos`` column (the block's position in
    recording order, i.e. the origin's index).  The best side is stably
    sorted by observer ASN, so each observer's rows appear in ``(pos,
    row)`` order.  The offered side is lexsorted by ``(asn, pos,
    provenance, path length, learned_from)`` with ties keeping row
    order — exactly the ``all_paths`` sort — and grouped into maximal
    ``(asn, pos)`` runs so one group IS one origin's sorted candidate
    list.  The sides' route columns (:meth:`best_columns`,
    :meth:`offered_columns`) are concatenated on first use, with every
    block's community bags value-interned into one :attr:`bags` table.
    """

    __slots__ = ("_blocks", "_b_asn", "_b_pos", "_b_glob", "_b_base",
                 "_o_pos", "_o_glob", "_o_base",
                 "_g_asn", "_g_pos", "_g_start", "_g_end",
                 "_columns", "_bags")

    def __init__(self, best_blocks: Sequence[RouteBlock],
                 offered_blocks: Sequence[RouteBlock]) -> None:
        self._blocks = (list(best_blocks), list(offered_blocks))
        self._b_asn, self._b_pos, self._b_glob, self._b_base = \
            self._sorted_side(self._blocks[0], with_rank=False)
        asn, pos, self._o_glob, self._o_base = \
            self._sorted_side(self._blocks[1], with_rank=True)
        self._o_pos = pos
        count = len(asn)
        if count:
            change = np.nonzero((asn[1:] != asn[:-1])
                                | (pos[1:] != pos[:-1]))[0] + 1
            starts = np.concatenate(([0], change))
            self._g_asn = asn[starts]
            self._g_pos = pos[starts]
            self._g_start = starts
            self._g_end = np.concatenate((starts[1:], [count]))
        else:
            empty = np.empty(0, dtype=np.int64)
            self._g_asn = self._g_pos = empty
            self._g_start = self._g_end = empty
        self._columns = None
        self._bags = None

    @staticmethod
    def _sorted_side(blocks, with_rank: bool):
        """Concatenate one side's columns and sort by observer ASN.

        Returns the sorted ``(asn, pos, global id)`` columns and the
        per-position first global id (``len(blocks) + 1`` bounds).
        Without *with_rank* the sort is a stable argsort (rows stay in
        global ``(pos, row)`` order per observer); with it, rows are
        additionally ranked by the ``all_paths`` key ``(provenance,
        path length, learned_from or -1)`` within each ``(asn, pos)``
        run, ties keeping recording order.
        """
        lengths = np.fromiter((len(b.asn) for b in blocks), dtype=np.int64,
                              count=len(blocks))
        base = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(lengths, out=base[1:])
        parts = [b for b in blocks if len(b.asn)]
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, base
        asn = np.concatenate([b.asn for b in parts])
        pos = np.repeat(np.arange(len(blocks), dtype=np.int64), lengths)
        if with_rank:
            prov = np.concatenate([b.provenance for b in parts])
            plen = np.concatenate([np.diff(b.path_offsets) for b in parts])
            learned = np.concatenate([b.learned_from for b in parts])
            # ``all_paths`` ranks on ``route.learned_from or -1``:
            # both None (encoded -1) and exporter 0 collapse to -1.
            learned = np.where(learned == 0, -1, learned)
            order = np.lexsort((learned, plen, prov, pos, asn))
        else:
            order = np.argsort(asn, kind="stable")
        return asn[order], pos[order], order, base

    def _best_span(self, observer: int) -> Tuple[int, int]:
        return (int(np.searchsorted(self._b_asn, observer, side="left")),
                int(np.searchsorted(self._b_asn, observer, side="right")))

    # -- queries -----------------------------------------------------------

    def best_rows(self, observer: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(pos, global id)`` columns of the observer's best routes,
        in recording order (read-only slices of the index)."""
        lo, hi = self._best_span(observer)
        return self._b_pos[lo:hi], self._b_glob[lo:hi]

    def best_refs(self, observer: int) -> List[Tuple[int, int]]:
        """``(pos, row)`` of the observer's best routes, recording order."""
        pos, glob = self.best_rows(observer)
        return list(zip(pos.tolist(), (glob - self._b_base[pos]).tolist()))

    def view_rows(self, observer: int):
        """The observer's full view as ``(pos, offered, glob, first)``
        columns, one row per displayed route, in origin recording order.

        Per origin the rows are the sorted offered candidates where any
        exist, else the single best row (the last one when a
        hand-built block holds several) — the offered-route fallback a
        looking glass displays.
        ``offered`` says which side ``glob`` indexes; ``first`` marks each
        origin's first row, its best path.
        """
        glo = int(np.searchsorted(self._g_asn, observer, side="left"))
        ghi = int(np.searchsorted(self._g_asn, observer, side="right"))
        if glo < ghi:
            start = int(self._g_start[glo])
            end = int(self._g_end[ghi - 1])
        else:
            start = end = 0
        o_pos = self._o_pos[start:end]
        o_first = np.zeros(end - start, dtype=bool)
        o_first[self._g_start[glo:ghi] - start] = True
        b_pos, b_glob = self.best_rows(observer)
        keep = np.ones(len(b_pos), dtype=bool)
        keep[:-1] = b_pos[1:] != b_pos[:-1]
        keep &= ~sorted_member(b_pos, self._g_pos[glo:ghi])
        pos = np.concatenate((o_pos, b_pos[keep]))
        order = np.argsort(pos, kind="stable")
        offered = np.zeros(len(pos), dtype=bool)
        offered[:len(o_pos)] = True
        first = np.concatenate((o_first, np.ones(int(keep.sum()),
                                                 dtype=bool)))
        glob = np.concatenate((self._o_glob[start:end], b_glob[keep]))
        return pos[order], offered[order], glob[order], first[order]

    # -- route columns -----------------------------------------------------

    @property
    def bags(self) -> List[frozenset]:
        """Every block's community bags, value-interned (both sides)."""
        self._route_columns()
        return self._bags

    def best_columns(self) -> SideColumns:
        """The best side's route columns (built once)."""
        return self._route_columns()[0]

    def offered_columns(self) -> SideColumns:
        """The offered side's route columns (built once)."""
        return self._route_columns()[1]

    def _route_columns(self):
        if self._columns is None:
            ids: dict = {}
            bags: List[frozenset] = []
            local = []
            for blocks in self._blocks:
                for block in blocks:
                    for bag in block.bag_values:
                        bag_id = ids.get(bag)
                        if bag_id is None:
                            bag_id = ids[bag] = len(bags)
                            bags.append(bag)
                        local.append(bag_id)
            local = np.asarray(local, dtype=np.int64)
            offset = 0
            columns = []
            for blocks in self._blocks:
                columns.append(_side_columns(blocks, local, offset))
                offset += sum(len(block.bag_values) for block in blocks)
            self._bags = bags
            self._columns = tuple(columns)
        return self._columns


def _side_columns(blocks: Sequence[RouteBlock], local: np.ndarray,
                  offset: int) -> SideColumns:
    """Concatenate *blocks*' route columns; block bag ids map through
    *local* (every block's bag table, flattened, starting at *offset*)."""
    if not blocks:
        empty = np.empty(0, dtype=np.int64)
        return SideColumns(empty.astype(np.int16), empty, empty,
                           np.zeros(1, dtype=np.int64), empty)
    rows = np.fromiter((len(b.asn) for b in blocks), dtype=np.int64,
                       count=len(blocks))
    bag_base = np.zeros(len(blocks), dtype=np.int64)
    np.cumsum([len(b.bag_values) for b in blocks[:-1]], out=bag_base[1:])
    bag = local[np.repeat(bag_base + offset, rows)
                + np.concatenate([b.bag_id for b in blocks])]
    # Every block's offsets back to back; the differences across a
    # block boundary (its last offset, the next block's leading 0) go.
    offsets = np.concatenate([b.path_offsets for b in blocks])
    lengths = np.delete(np.diff(offsets), np.cumsum(rows + 1)[:-1] - 1)
    path_offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=path_offsets[1:])
    return SideColumns(
        np.concatenate([b.provenance for b in blocks]),
        np.concatenate([b.learned_from for b in blocks]), bag,
        path_offsets, np.concatenate([b.path_values for b in blocks]))


def sorted_member(values, ordered) -> np.ndarray:
    """``np.isin(values, ordered)`` for an ascending *ordered* array,
    by binary search."""
    where = np.searchsorted(ordered, values)
    found = where < len(ordered)
    found[found] = ordered[where[found]] == values[found]
    return found


def ragged_gather(offsets, values, rows):
    """CSR ``(offsets, values)`` of *rows* of the CSR ``(offsets,
    values)``, in *rows* order (one gather)."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    shift = np.repeat(starts - out[:-1], lengths)
    return out, values[shift + np.arange(int(out[-1]), dtype=np.int64)]


def first_seen(values):
    """``(ids, firsts)``: *values* numbered by first occurrence (equal
    values share an id, ids count up in order of first appearance) and
    the position of each id's first occurrence."""
    values = np.asarray(values)
    distinct, first, inverse = np.unique(values, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[order] = np.arange(len(distinct), dtype=np.int64)
    return rank[inverse.reshape(-1)], first[order]


def _mix(x):
    """splitmix64's finaliser over a uint64 array (wrapping)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def intern_rows(offsets, values):
    """:func:`first_seen` over the CSR rows ``(offsets, values)``
    compared by value: ``(ids, firsts)`` with equal rows sharing an id.

    Rows are bucketed by a 64-bit hash of their cells (position-salted,
    summed per row), then every row is checked cell by cell against its
    bucket's first row; a hash collision between different rows falls
    back to exact tuple interning.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    count = len(offsets) - 1
    lengths = np.diff(offsets)
    owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
    place = np.arange(len(values), dtype=np.int64) - offsets[owner]
    cells = _mix(values.view(np.uint64) ^ _mix(place.view(np.uint64)))
    hashes = _mix(lengths.view(np.uint64))
    nonempty = np.flatnonzero(lengths)
    if len(nonempty):
        hashes[nonempty] += np.add.reduceat(cells, offsets[nonempty])
    ids, firsts = first_seen(hashes)
    head = firsts[ids]
    if np.array_equal(lengths[head], lengths) and np.array_equal(
            values[offsets[head][owner] + place], values):
        return ids, firsts
    flat = values.tolist()
    bounds = offsets.tolist()
    seen: dict = {}
    keys = [seen.setdefault(tuple(flat[bounds[i]:bounds[i + 1]]), len(seen))
            for i in range(count)]
    return first_seen(np.asarray(keys, dtype=np.int64))


class OriginPrefixes:
    """Every recorded origin's prefixes as one value-interned column.

    ``values`` lists the distinct prefixes in first-seen order over the
    origins in recording order; origin position ``pos`` announces
    ``flat[offsets[pos]:offsets[pos + 1]]`` (ids into ``values``, its
    prefix list in order, repeats kept).  The query-side helpers
    (:meth:`positions_of`, :meth:`sorted_ids`) are built on first use.
    """

    __slots__ = ("values", "offsets", "flat", "_positions", "_rank")

    def __init__(self, prefix_lists: Sequence[Sequence[object]]) -> None:
        ids: dict = {}
        values: List[object] = []
        flat: List[int] = []
        for prefixes in prefix_lists:
            for prefix in prefixes:
                prefix_id = ids.get(prefix)
                if prefix_id is None:
                    prefix_id = ids[prefix] = len(values)
                    values.append(prefix)
                flat.append(prefix_id)
        self.values = values
        self.flat = np.asarray(flat, dtype=np.int64)
        self.offsets = np.zeros(len(prefix_lists) + 1, dtype=np.int64)
        np.cumsum([len(prefixes) for prefixes in prefix_lists],
                  out=self.offsets[1:])
        self._positions = None
        self._rank = None

    @property
    def counts(self) -> np.ndarray:
        """Prefixes per origin position."""
        return np.diff(self.offsets)

    def ids_at(self, positions) -> np.ndarray:
        """The prefix ids of *positions*, each origin's list in order."""
        return ragged_gather(self.offsets, self.flat, positions)[1]

    def positions_of(self, prefix) -> List[int]:
        """Origin positions announcing *prefix*, ascending (an origin
        listing it twice appears twice)."""
        if self._positions is None:
            positions: dict = {}
            values = self.values
            owners = np.repeat(np.arange(len(self.offsets) - 1),
                               self.counts).tolist()
            for pos, prefix_id in zip(owners, self.flat.tolist()):
                positions.setdefault(values[prefix_id], []).append(pos)
            self._positions = positions
        return self._positions.get(prefix, [])

    def sorted_ids(self, ids) -> List[int]:
        """The distinct *ids*, ordered by their prefixes' sort order."""
        if self._rank is None:
            order = sorted(range(len(self.values)),
                           key=self.values.__getitem__)
            self._rank = (np.asarray(order, dtype=np.int64),
                          np.argsort(order).astype(np.int64))
        order, rank = self._rank
        return order[np.unique(rank[np.asarray(ids, dtype=np.int64)])
                     ].tolist()


class ObserverView:
    """One observer's whole view — every origin's displayed routes — as
    index arrays into an :class:`ObservationIndex`'s route columns.

    Built by one vectorised slice (:meth:`ObservationIndex.view_rows`);
    it holds a fixed number of objects however many routes it covers.
    Route tuples are decoded for the whole view on the first query
    (:meth:`routes_for`); until then nothing per route exists.
    """

    __slots__ = ("index", "prefixes", "pos", "offered", "glob", "first",
                 "_decoded")

    def __init__(self, index: ObservationIndex, prefixes: OriginPrefixes,
                 observer: int) -> None:
        self.index = index
        self.prefixes = prefixes
        self.pos, self.offered, self.glob, self.first = \
            index.view_rows(observer)
        self._decoded = None

    def __len__(self) -> int:
        return len(self.pos)

    def prefix_list(self) -> List[object]:
        """The prefixes the view holds routes for, sorted."""
        positions = self.pos[self.first]
        return [self.prefixes.values[prefix_id] for prefix_id
                in self.prefixes.sorted_ids(self.prefixes.ids_at(positions))]

    def _decode(self):
        """Per-row ``(path cells, offsets, bags, exporters)`` as python
        lists plus ``pos -> (first row, end row)``, built once."""
        if self._decoded is None:
            index = self.index
            count = len(self.pos)
            sides = (index.best_columns(), index.offered_columns())
            lengths = np.empty(count, dtype=np.int64)
            bag = np.empty(count, dtype=np.int64)
            learned = np.empty(count, dtype=np.int64)
            masks = (~self.offered, self.offered)
            for side, mask in zip(sides, masks):
                glob = self.glob[mask]
                lengths[mask] = (side.path_offsets[glob + 1]
                                 - side.path_offsets[glob])
                bag[mask] = side.bag[glob]
                learned[mask] = side.learned_from[glob]
            offsets = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            cells = np.empty(int(offsets[-1]), dtype=np.int64)
            for side, mask in zip(sides, masks):
                rows = np.flatnonzero(mask)
                _, values = ragged_gather(side.path_offsets,
                                          side.path_values, self.glob[rows])
                _, target = ragged_gather(
                    offsets, np.arange(len(cells), dtype=np.int64), rows)
                cells[target] = values
            bags = index.bags
            starts = np.flatnonzero(self.first)
            ends = np.append(starts[1:], count)
            self._decoded = (
                cells.tolist(), offsets.tolist(),
                [bags[bag_id] for bag_id in bag.tolist()],
                [None if exporter < 0 else exporter
                 for exporter in learned.tolist()],
                dict(zip(self.pos[starts].tolist(),
                         zip(starts.tolist(), ends.tolist()))))
        return self._decoded

    def _group_routes(self, lo: int, hi: int):
        cells, offsets, bags, learned, _groups = self._decoded
        return [(tuple(cells[offsets[row]:offsets[row + 1]]), bags[row],
                 row == lo, learned[row]) for row in range(lo, hi)]

    def routes_for(self, prefix) -> List[tuple]:
        """``(as_path, communities, best, learned_from)`` of every route
        the view holds for *prefix*, origin by origin."""
        positions = self.prefixes.positions_of(prefix)
        if not positions:
            return []
        groups = self._decode()[4]
        routes = []
        for pos in positions:
            span = groups.get(pos)
            if span is not None:
                routes.extend(self._group_routes(*span))
        return routes


def _row_pairs(values, offsets):
    """``(lo, hi, cells)`` of the undirected adjacent pairs within the
    CSR rows *offsets* over *values*; ``cells`` holds each pair's first
    cell.  Pairs across a row boundary and ``left == right`` prepends
    are dropped."""
    if len(values) < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    left = values[:-1]
    right = values[1:]
    valid = left != right
    # Row i ends at offsets[i + 1] - 1; the pair starting there
    # crosses into the next row (none exists after the last cell).
    boundaries = offsets[1:-1] - 1
    valid[boundaries[(boundaries >= 0)
                     & (boundaries < len(valid))]] = False
    cells = np.flatnonzero(valid)
    return (np.minimum(left, right)[cells], np.maximum(left, right)[cells],
            cells)


def distinct_links(offsets, values):
    """The set of undirected ``(lo, hi)`` pairs adjacent in any CSR row
    of ``(offsets, values)`` (prepends skipped), deduplicated as packed
    link keys (:func:`pack_links`) when every value is keyable."""
    lo, hi, _cells = _row_pairs(np.asarray(values, dtype=np.int64),
                                np.asarray(offsets, dtype=np.int64))
    if len(lo) and lo.min() >= 0 and hi.max() <= MAX_KEYED:
        keys = np.sort(pack_links(lo, hi))
        lo, hi = unpack_links(keys[np.append(True, keys[1:] != keys[:-1])])
    return set(zip(lo.tolist(), hi.tolist()))


def pack_links(lo, hi):
    """uint64 link keys ``(lo << 32) | hi`` of undirected ASN pairs
    (``lo <= hi``, both in ``[0, MAX_KEYED]``)."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    return ((lo << 32) | hi).view(np.uint64)


def unpack_links(keys):
    """The ``(lo, hi)`` int64 arrays :func:`pack_links` packed."""
    return ((keys >> np.uint64(32)).astype(np.int64),
            (keys & np.uint64(MAX_KEYED)).astype(np.int64))


#: Blocks keyed per vectorized pass in :func:`key_links`: bounds the
#: pass's temporaries (a few copies of the chunk's path cells).
_KEY_CHUNK_BLOCKS = 128


def key_links(blocks: Iterable[RouteBlock]) -> None:
    """Cache :meth:`RouteBlock.link_keys` on every block of *blocks*
    that has none, in one vectorized pass per chunk of blocks.

    The chunk's rows are concatenated (a block's last row ends where
    the next block's first begins, so no pair crosses blocks), paired
    and packed at once, then cut back per block.  After a wide delta
    event every block of the result is fresh; keying them this way
    costs a few numpy calls per chunk instead of per block.
    """
    pending = [block for block in blocks if block._link_keys is None]
    for first in range(0, len(pending), _KEY_CHUNK_BLOCKS):
        chunk = pending[first:first + _KEY_CHUNK_BLOCKS]
        # starts[i]: block i's first cell in the concatenation.
        starts = np.zeros(len(chunk) + 1, dtype=np.int64)
        np.cumsum([len(block.path_values) for block in chunk],
                  out=starts[1:])
        values = np.concatenate([block.path_values for block in chunk])
        offsets = np.concatenate(
            [starts[:1]] + [block.path_offsets[1:] + start for block, start
                            in zip(chunk, starts[:-1].tolist())])
        lo, hi, cells = _row_pairs(values, offsets)
        outside = cells[(lo < 0) | (hi > MAX_KEYED)]
        unkeyable = set(
            (np.searchsorted(starts, outside, side="right") - 1).tolist())
        keys = pack_links(lo, hi)
        bounds = np.searchsorted(cells, starts).tolist()
        for index, block in enumerate(chunk):
            block._link_keys = _UNKEYABLE if index in unkeyable \
                else keys[bounds[index]:bounds[index + 1]].copy()


def blocks_from_columns(counts, asns, provenance, learned_from, pids,
                        bag_ids, bag_value,
                        path_table: PathTable) -> List[RouteBlock]:
    """Assemble consecutive route blocks from flat store-level columns:
    block ``i`` is a :class:`RouteBlock` of the next ``counts[i]`` rows.

    The columns must already be recorded-observer filtered.  Block-local
    bag ids come from one ``np.unique`` over ``(block, store bag id)``
    keys, so each block's :attr:`~RouteBlock.bag_values` lists its bags
    in ascending store-id order (each resolved once through
    *bag_value*), and one :meth:`PathTable.gather` covers every row:
    past that, a block costs slices and an offset rebase.  Block columns
    are views into the run's arrays, which are made read-only (including
    column arrays passed in as is) so no block can write into its
    neighbours.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_blocks = len(counts)
    bounds = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    block_ids = np.arange(num_blocks, dtype=np.int64)
    owner = np.repeat(block_ids, counts)
    bag_ids = np.asarray(bag_ids, dtype=np.int64)
    span = int(bag_ids.max()) + 1 if len(bag_ids) else 1
    keys, local = np.unique(owner * span + bag_ids, return_inverse=True)
    # Keys sort by (block, bag id): each block's bags are one run.
    firsts = np.searchsorted(keys, np.arange(num_blocks + 1) * span)
    bag_table = [bag_value(bid) for bid in (keys % span).tolist()]
    pids = np.asarray(pids, dtype=np.int64)
    offsets, values = path_table.gather(pids)
    # Every block's ``count + 1`` offsets back to back, each run rebased
    # to its block's first cell.
    cut = np.repeat(block_ids, counts + 1)
    rebased = offsets[np.arange(len(cut)) - cut] - offsets[bounds[cut]]
    columns = (np.asarray(asns, dtype=np.int64),
               np.asarray(provenance).astype(np.int16, copy=False),
               np.asarray(learned_from, dtype=np.int64),
               (local - firsts[owner]).astype(np.int32), pids)
    for array in columns + (rebased, values):
        array.flags.writeable = False
    asns, provenance, learned_from, local, pids = columns
    rows = bounds.tolist()
    cells = offsets[bounds].tolist()
    firsts = firsts.tolist()
    return [RouteBlock(
        asn=asns[lo:hi], provenance=provenance[lo:hi],
        learned_from=learned_from[lo:hi], bag_id=local[lo:hi],
        pid=pids[lo:hi], path_offsets=rebased[lo + block:hi + block + 1],
        path_values=values[cells[block]:cells[block + 1]],
        bag_values=tuple(bag_table[firsts[block]:firsts[block + 1]]))
        for block, (lo, hi) in enumerate(zip(rows, rows[1:]))]

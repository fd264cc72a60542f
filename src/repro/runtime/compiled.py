"""The multi-origin propagation kernel: plan once, sweep whole batches.

The :class:`~repro.runtime.frontier.FrontierPropagator` pays full Python
interpreter overhead per origin — every full sweep re-walks the same CSR
edges once per origin member.  For wide batches the
:class:`~repro.bgp.propagation.PropagationEngine` runs this module
instead (it picks the kernel by batch size, see
:data:`~repro.bgp.propagation.COMPILED_MIN_ORIGINS`):

* :class:`PropagationPlan` — a per-topology compilation of the CSR
  index's three phase-edge blocks into flat numpy arrays (target,
  sibling flag, hop cost, RS via, edge community bag, pre-packed key
  tail), each in the narrowest safe integer dtype (:func:`fit_dtype`).
  Built once per :class:`~repro.runtime.context.PipelineContext` and
  reused across every batch, so warm re-runs only pay the sweeps.
* :class:`CompiledPropagator` — runs the three valley-free phases for a
  whole batch of origins at once over flat state planes shaped
  ``(origins x nodes)``.  Each phase is a *level-synchronous* replay of
  the frontier engine's bucket queue: at bucket level ``L`` every
  origin's exporters with a pending pop at ``L`` export simultaneously,
  candidate relaxations are resolved by one fused scatter pass, and
  newly adopted routes are scheduled into later levels.  A full batch
  costs a few dozen vectorized rounds per phase instead of ``origins x
  edges`` Python iterations.

Exactness
---------
The sweep reproduces the frontier engine bit-for-bit: best routes
(provenance, AS path, communities, learned-from), the ``touched``
discovery order and the candidate offers recorded for
alternative-tracking observers.  Three mechanisms carry the proof
obligations the per-origin bucket queue discharges implicitly:

* adopted *paths are snapshotted at export time* (cons cells allocated
  per adoption, exactly like the frontier's
  :class:`~repro.runtime.stores.PathStore`), never reconstructed from
  final state — sibling links can class-improve an exporter *after*
  neighbours adopted its earlier, shorter announcement, so transient
  exports are part of the semantics;
* bucket pushes are replayed literally (per-level push lists, drops of
  already-drained buckets, the exported-state guard as a dirty flag),
  so re-export timing matches pop for pop;
* optimistic rounds are *transactional*: when an adoption lands on a
  queue entry that pops later in the same bucket drain — the frontier's
  sequential pop would have seen the update — the round detects the
  contaminated queue position per origin row, commits only the pops
  before it, and re-drains the rest against the updated state.

Mechanics
---------
* **narrow planes** — the route-key/pid/bag planes are allocated in the
  plan's :meth:`PropagationPlan.key_plane_dtype` (int32 whenever the
  whole packed-key range fits, true up to ~2900 nodes).  The int32 pid
  plane is guarded by :class:`PathIdOverflow`: if a batch ever
  allocates more path cells than int32 can address, the batch is re-run
  with int64 planes — propagation is deterministic, so the retry is
  bit-identical, never silently wrapped.
* **fused rounds** — winner selection and first-touch detection share
  one scatter pass over the candidates (candidate positions double as
  tie-break ranks), and origin rows are recovered only for the handful
  of selected candidates.

The differential suites under ``tests/`` pin the kernel bit-identical
to the frontier engine and to the object-graph reference oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.frontier import (
    CLASS_CUSTOMER,
    CLASS_PEER,
    CLASS_PROVIDER,
    REL_SIBLING,
    UNSET,
)
from repro.runtime.stores import CommunityBagStore

__all__ = [
    "BatchState",
    "BatchedPathStore",
    "CompiledPropagator",
    "PathIdOverflow",
    "PropagationPlan",
    "compiled_batch_size",
    "fit_dtype",
]

#: Scatter-min filler, larger than any candidate key or index.
_HUGE = (1 << 62)

#: Largest value an int32 plane/schedule cell can hold.
INT32_MAX = (1 << 31) - 1


class PathIdOverflow(RuntimeError):
    """A path-cell id outgrew the narrow plane dtype in use.

    Raised by :meth:`BatchedPathStore.alloc` when the store was given an
    ``id_limit`` (set by callers that keep path ids in int32 planes) and
    allocation would exceed it.  Callers re-run the batch with int64
    planes — propagation is deterministic, so the retry is bit-identical.
    """


def fit_dtype(max_value: int):
    """The narrowest schedule/plane dtype that can hold *max_value*.

    This is the int32/int64 promotion rule of the packed schedule: a
    value range that fits int32 (``<= 2**31 - 1``) is stored narrow,
    anything larger — 4-byte ASNs above 2**31 in ``via``/ASN arrays,
    route keys on topologies beyond ~2900 nodes — falls back to int64.
    """
    return np.int32 if 0 <= max_value <= INT32_MAX else np.int64


class PhasePlan:
    """One phase's edges as flat numpy arrays, in CSR order.

    ``key_tail`` pre-packs each edge's contribution to the candidate
    route key (see :class:`PropagationPlan` for the packing): the hop
    cost in the length term plus the exporter id in the tie-break term,
    so building a round's candidate keys is one gather plus one
    multiply-add over the exporter prefixes.
    """

    __slots__ = ("indptr", "deg", "src", "dst", "sib", "has_sib", "hop",
                 "via", "has_via", "bag", "has_bag", "key_tail",
                 "num_edges")

    def __init__(self, indptr, src, dst, sib, hop, via, bag,
                 key_tail) -> None:
        self.indptr = indptr  #: per-node out-edge slice starts
        self.deg = indptr[1:] - indptr[:-1]  #: out-degree per node
        self.src = src        #: exporting node per edge
        self.dst = dst        #: importing node per edge
        self.sib = sib        #: True where the edge is a sibling link
        self.has_sib = bool(sib.any())
        self.hop = hop        #: path-length cost (2 for opaque-RS edges)
        self.via = via        #: RS ASN inserted in the path, -1 when none
        self.has_via = bool((via >= 0).any())
        self.bag = bag        #: community-bag id attached on the edge
        self.has_bag = bool((bag != 0).any())
        self.key_tail = key_tail  #: hop * node_span + src + 1, per edge
        self.num_edges = len(dst)

    @classmethod
    def from_phase_edges(cls, edges, num_nodes: int) -> "PhasePlan":
        """Pack one phase's edges, each array in its narrowest safe dtype.

        ``indptr``/``src``/``dst``/``hop``/``key_tail`` are bounded by
        the node and edge counts and the key-tail packing; ``via`` holds
        ASNs (4-byte ASNs above ``2**31`` force int64) and ``bag`` holds
        interned bag ids.  Mixed int32/int64 arithmetic downstream
        promotes to int64, so narrowing is free for exactness.
        """
        num_edges = len(edges.targets)
        idx_dtype = fit_dtype(max(num_nodes + 1, num_edges))
        indptr = np.asarray(edges.indptr, dtype=idx_dtype)
        dst = np.asarray(edges.targets, dtype=idx_dtype)
        rels = np.asarray(edges.rels, dtype=np.int64)
        vias = edges.vias
        via = np.asarray(vias, dtype=fit_dtype(max(max(vias, default=0), 0)))
        bags = edges.bags
        bag = np.asarray(bags, dtype=fit_dtype(max(max(bags, default=0), 0)))
        src = np.repeat(np.arange(num_nodes, dtype=idx_dtype),
                        np.diff(indptr))
        hop = np.where(via >= 0, 2, 1).astype(idx_dtype)
        tail_dtype = fit_dtype(2 * (num_nodes + 1) + num_nodes + 1)
        key_tail = (hop.astype(np.int64) * (num_nodes + 1)
                    + src + 1).astype(tail_dtype)
        return cls(indptr=indptr, src=src, dst=dst, sib=rels == REL_SIBLING,
                   hop=hop, via=via, bag=bag, key_tail=key_tail)


class PropagationPlan:
    """The per-topology compiled edge schedule of the kernel.

    Owns nothing mutable: one plan serves any number of concurrent
    batches over the same :class:`~repro.runtime.csr.CSRIndex`.

    Route preference — better class, then shorter path, then lower
    exporting node id (ids ascend with ASNs) — is packed into a single
    int64 **route key** ``(cls * max_len + length) * node_span + frm +
    1`` (``node_span = nodes + 1`` so a missing learned-from of -1
    packs cleanly; ``max_len`` bounds any AS-path length in the
    topology).  One integer compare is then the full lexicographic
    acceptance rule, and class/length/exporter are recovered from a key
    by division, so the sweeps only materialise them for the few
    candidates that win or get recorded.
    """

    __slots__ = ("num_nodes", "node_span", "max_len", "unset_key",
                 "node_asns", "customer", "peer", "provider")

    def __init__(self, index) -> None:
        self.num_nodes = index.num_nodes
        #: tie-break packing span (node ids shifted by one).
        self.node_span = index.num_nodes + 1
        #: exclusive bound on any AS-path length in this topology
        #: (origin counts 1, each hop adds 1, opaque RSes add 1 more).
        self.max_len = 2 * index.num_nodes + 3
        #: packed key of an untouched node (UNSET class, length 0,
        #: learned-from -1) — strictly above every real route key.
        self.unset_key = UNSET * self.max_len * self.node_span
        self.node_asns = np.asarray(index.node_asns, dtype=np.int64)
        self.customer = PhasePlan.from_phase_edges(
            index.customer_edges, index.num_nodes)
        self.peer = PhasePlan.from_phase_edges(
            index.peer_edges, index.num_nodes)
        self.provider = PhasePlan.from_phase_edges(
            index.provider_edges, index.num_nodes)

    def key_plane_dtype(self):
        """The narrowest dtype a route-key plane over this plan needs.

        int32 whenever the whole packed-key range (``unset_key`` is its
        exclusive top) fits — true up to ~2900 nodes — int64 beyond.
        """
        return fit_dtype(self.unset_key)


class BatchedPathStore:
    """Cons-cell path store with vectorized allocation.

    Same structure sharing as :class:`~repro.runtime.stores.PathStore`
    (cells are ``(head ASN, parent id)``), but cells for a whole
    relaxation round are allocated in one append and the backing buffers
    are numpy arrays.  Consumers read the cells through :meth:`columns`.

    ``id_limit`` is the int32 overflow guard: callers that keep path ids
    in narrow planes pass ``INT32_MAX`` and :meth:`alloc` raises
    :class:`PathIdOverflow` instead of silently wrapping.
    """

    __slots__ = ("_heads", "_parents", "_size", "id_limit")

    def __init__(self, capacity: int = 1024,
                 id_limit: Optional[int] = None) -> None:
        self._heads = np.empty(capacity, dtype=np.int64)
        self._parents = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self.id_limit = id_limit

    def alloc(self, heads, parents):
        """Append one cell per (head, parent) pair; returns the new ids."""
        count = len(heads)
        need = self._size + count
        if self.id_limit is not None and need > self.id_limit:
            raise PathIdOverflow(
                f"path store would grow to {need} cells, beyond the "
                f"narrow-plane id limit {self.id_limit}")
        if need > len(self._heads):
            capacity = max(need, 2 * len(self._heads))
            for name in ("_heads", "_parents"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:self._size] = getattr(self, name)[:self._size]
                setattr(self, name, grown)
        ids = np.arange(self._size, need, dtype=np.int64)
        self._heads[self._size:need] = heads
        self._parents[self._size:need] = parents
        self._size = need
        return ids

    def columns(self):
        """The live ``(heads, parents)`` cell columns (array views).

        Feed for the vectorized chain walk
        (:func:`repro.runtime.fragments.walk_paths`), which materialises
        every recorded path of a batch in one pass instead of N scalar
        chain walks.
        """
        return self._heads[:self._size], self._parents[:self._size]

    def __len__(self) -> int:
        return self._size


class BatchState:
    """The outcome of one batch run, row-per-origin.

    ``cls``/``frm``/``pid``/``bag`` are ``(origins x nodes)`` planes;
    ``paths`` is the store whose cells the ``pid`` plane references.
    :meth:`touched_columns` and :meth:`offer_columns` are the flat,
    row-sorted feeds the engine assembles
    :class:`~repro.runtime.fragments.RouteBlock` fragments from.
    """

    __slots__ = ("paths", "cls", "frm", "pid", "bag",
                 "num_origins", "_onodes", "_touched_chunks",
                 "_offer_chunks")

    def __init__(self, paths, cls, frm, pid, bag, onodes,
                 touched_chunks, offer_chunks) -> None:
        self.paths = paths
        self.cls = cls
        self.frm = frm
        self.pid = pid
        self.bag = bag
        self.num_origins = len(onodes)
        self._onodes = onodes
        self._touched_chunks = touched_chunks
        self._offer_chunks = offer_chunks

    def touched_columns(self):
        """``(rows, nodes)`` of every node holding a route, sorted
        stably by row: per row the origin first, then discovery order."""
        rows = np.concatenate(
            [np.arange(self.num_origins, dtype=np.int64)]
            + [chunk[0] for chunk in self._touched_chunks])
        nodes = np.concatenate(
            [self._onodes] + [chunk[1] for chunk in self._touched_chunks])
        order = np.argsort(rows, kind="stable")
        return rows[order], nodes[order]

    def offer_columns(self):
        """Offers as batch-wide ``(row, to, cls, len, frm, pid, bag)``
        columns, sorted stably by origin row — per row, in the order
        the sweep recorded them."""
        if not self._offer_chunks:
            return (np.empty(0, dtype=np.int64),) * 7
        columns = [
            np.concatenate([chunk[col] for chunk in self._offer_chunks])
            for col in range(7)]
        order = np.argsort(columns[0], kind="stable")
        return tuple(column[order] for column in columns)


class UnionTable:
    """Dense (bag, edge-bag) -> union-bag memo, grown on demand.

    The :class:`~repro.runtime.stores.CommunityBagStore`'s own dict memo
    is only consulted for missing pairs, so hot rounds never sort or
    hash.
    """

    __slots__ = ("_bags", "_table")

    def __init__(self, bags: CommunityBagStore) -> None:
        self._bags = bags
        self._table = np.full((1, 1), -1, dtype=np.int64)

    def union_many(self, left, right):
        """Vectorized community-bag union of parallel id arrays."""
        table = self._table
        need_rows = int(left.max()) + 1
        need_cols = int(right.max()) + 1
        if need_rows > table.shape[0] or need_cols > table.shape[1]:
            grown = np.full((max(need_rows, 2 * table.shape[0]),
                             max(need_cols, 2 * table.shape[1])),
                            -1, dtype=np.int64)
            grown[:table.shape[0], :table.shape[1]] = table
            self._table = table = grown
        merged = table[left, right]
        missing = np.nonzero(merged < 0)[0]
        if len(missing):
            columns = table.shape[1]
            pair, inverse = np.unique(
                left[missing].astype(np.int64) * columns + right[missing],
                return_inverse=True)
            union = self._bags.union
            values = np.fromiter(
                (union(int(p) // columns, int(p) % columns) for p in pair),
                dtype=np.int64, count=len(pair))
            table[pair // columns, pair % columns] = values
            merged[missing] = values[inverse]
        return merged


class _Arrays:
    """Per-batch mutable sweep state (origins x nodes).

    *dtype* sizes the route-key/pid/bag planes (the plan's
    :meth:`~PropagationPlan.key_plane_dtype`, with
    :class:`PathIdOverflow` guarding the pid plane).  Scatter scratch
    stays int64 — the packed (key, position) reduction values exceed
    int32 regardless of plane width.
    """

    __slots__ = ("key", "pid", "bag", "dirty",
                 "key_f", "pid_f", "bag_f", "dirty_f",
                 "work_key", "work_touch", "work_pos")

    def __init__(self, num_origins: int, num_nodes: int,
                 unset_key: int, dtype) -> None:
        shape = (num_origins, num_nodes)
        #: packed route key per node (see :class:`PropagationPlan`) —
        #: the single comparison plane; provenance class, path length
        #: and learned-from are recovered from it by division.
        self.key = np.full(shape, unset_key, dtype=dtype)
        self.pid = np.full(shape, -1, dtype=dtype)
        self.bag = np.zeros(shape, dtype=dtype)
        #: state changed since the node's last export (per origin) —
        #: the vectorized form of the frontier's exported-key guard.
        self.dirty = np.zeros(shape, dtype=bool)
        # Flat views of the planes: the sweeps index with precomputed
        # ``row * nodes + node`` offsets, which is markedly faster than
        # two-array fancy indexing on the 2D planes.
        self.key_f = self.key.ravel()
        self.pid_f = self.pid.ravel()
        self.bag_f = self.bag.ravel()
        self.dirty_f = self.dirty.ravel()
        # flat (origins*nodes) scratch for scatter-min winner selection
        # and queue-position lookup.
        flat = num_origins * num_nodes
        self.work_key = np.empty(flat, dtype=np.int64)
        self.work_touch = np.empty(flat, dtype=np.int64)
        self.work_pos = np.full(flat, -1, dtype=np.int64)


#: Default origins per batch: wide enough to amortise each level
#: round's fixed numpy dispatch cost, narrow enough that the per-round
#: candidate arrays stay small.  Measured on the bench-size europe2013
#: full sweep (372 origins): 64-origin batches run it as fast as 128
#: (best of 5: 177 vs 191 ms) with under half the transient memory
#: (traced peak 10.6 vs 16.6 MB); 32 is slower (211 ms).
_COMPILED_BATCH_ROWS = 64


def compiled_batch_size(plan: PropagationPlan,
                        budget_bytes: int = 64 << 20) -> int:
    """Origins per batch under a per-batch memory budget.

    Starts from the cache-friendly default batch width and shrinks it
    when the (origins x nodes) planes would blow the budget: three
    value planes in the plan's key dtype, the dirty plane, and three
    int64 scratch vectors.
    """
    item = (3 * np.dtype(plan.key_plane_dtype()).itemsize  # key/pid/bag
            + 1                                            # dirty
            + 3 * 8)                                       # scratch
    per_origin = item * max(plan.num_nodes, 1)
    return max(1, min(_COMPILED_BATCH_ROWS, budget_bytes // per_origin))


class CompiledPropagator:
    """Replay the compiled plan for a whole batch of origins at once."""

    def __init__(self, plan: PropagationPlan,
                 bags: CommunityBagStore) -> None:
        self._plan = plan
        self._bags = bags
        self._unions = UnionTable(bags)
        # Growable identity scratch serving the per-round ``arange``
        # needs (ragged expansion offsets, queue positions, tie-break
        # ranks).  The buffer is only ever *replaced* on growth, never
        # written, so outstanding slices stay valid.
        self._idx_scratch = np.empty(0, dtype=np.int64)
        #: plane dtype for this topology; promoted to int64 for good if
        #: a batch ever overflows the int32 path-id range.
        self._dtype = plan.key_plane_dtype()
        # Per-batch memo: whether the current alternatives mask records
        # anything at all (checked once per mask object, not per round).
        self._alt_mask_seen = None
        self._alt_any = False

    def _identity(self, n: int):
        """``arange(n)`` served from the cached scratch buffer."""
        if len(self._idx_scratch) < n:
            self._idx_scratch = np.arange(
                max(n, 2 * len(self._idx_scratch)), dtype=np.int64)
        return self._idx_scratch[:n]

    def _make_paths(self, num_origins: int) -> BatchedPathStore:
        """A fresh per-batch path store, id-limited on int32 planes."""
        limit = INT32_MAX if self._dtype is np.int32 else None
        return BatchedPathStore(capacity=max(1024, 2 * num_origins),
                                id_limit=limit)

    # -- public API ----------------------------------------------------------

    def run_batch(
        self,
        origin_nodes: Sequence[int],
        origin_bags: Sequence[int],
        alt_nodes: FrozenSet[int] = frozenset(),
    ) -> BatchState:
        """Propagate every origin in the batch; rows follow input order.

        Narrow planes widen transparently: a path-id overflow re-runs
        the batch on int64 planes (bit-identical — the algorithm is
        deterministic), and the promotion is sticky.
        """
        try:
            return self._run(origin_nodes, origin_bags, alt_nodes)
        except PathIdOverflow:
            self._dtype = np.int64
            return self._run(origin_nodes, origin_bags, alt_nodes)

    def _run(self, origin_nodes, origin_bags, alt_nodes) -> BatchState:
        plan = self._plan
        num_nodes = plan.num_nodes
        num_origins = len(origin_nodes)
        paths = self._make_paths(num_origins)
        state = _Arrays(num_origins, num_nodes, plan.unset_key, self._dtype)

        rows = np.arange(num_origins, dtype=np.int64)
        onodes = np.asarray(list(origin_nodes), dtype=np.int64)
        # Origin route: class ORIGIN (0), length 1, learned-from -1.
        state.key[rows, onodes] = plan.node_span
        state.pid[rows, onodes] = paths.alloc(
            plan.node_asns[onodes], np.full(num_origins, -1, dtype=np.int64))
        state.bag[rows, onodes] = np.asarray(
            list(origin_bags), dtype=np.int64)

        alt_mask = np.zeros(num_nodes, dtype=bool)
        for node in alt_nodes:
            alt_mask[node] = True

        # (row, node) chunks in adoption order / offer chunks in offer order.
        touched_chunks: List[Tuple] = []
        offer_chunks: List[Tuple] = []

        # Phase 1: customer routes climb provider chains (and siblings).
        # Seed chunks carry a third element marking them pre-sorted.
        state.dirty[rows, onodes] = True
        self._sweep(plan.customer, CLASS_CUSTOMER, CLASS_CUSTOMER, state,
                    {1: [(rows, onodes, True)]}, alt_mask, touched_chunks,
                    offer_chunks, paths)

        # Phase 2: one staged hop across peering links.
        self._peer_hop(plan.peer, state, alt_mask, touched_chunks,
                       offer_chunks, paths)

        # Phase 3: everything descends provider->customer chains.  The
        # frontier engine reseeds its queue with every touched node and
        # an empty exported-guard, which is exactly "all routed nodes
        # dirty, pushed at their current length".
        routed_rows, routed_nodes = np.nonzero(state.key != plan.unset_key)
        state.dirty[:] = False
        state.dirty[routed_rows, routed_nodes] = True
        lengths = (state.key[routed_rows, routed_nodes]
                   // plan.node_span) % plan.max_len
        order = np.argsort(lengths, kind="stable")
        levels, starts = np.unique(lengths[order], return_index=True)
        bounds = list(starts[1:]) + [len(order)]
        seeds = {
            int(level): [(routed_rows[order[start:end]],
                          routed_nodes[order[start:end]], True)]
            for level, start, end in zip(levels, starts, bounds)}
        self._sweep(plan.provider, CLASS_PROVIDER, CLASS_PROVIDER, state,
                    seeds, alt_mask, touched_chunks, offer_chunks, paths)

        # The class and learned-from planes are unpacked from the key
        # plane in two sequential passes — far cheaper than scattering
        # them per adoption during the sweeps.
        cls = state.key // (plan.node_span * plan.max_len)
        frm = state.key % plan.node_span - 1
        return BatchState(paths, cls, frm, state.pid, state.bag,
                          onodes, touched_chunks, offer_chunks)

    # -- phases --------------------------------------------------------------

    def _sweep(self, phase: PhasePlan, base_class: int, export_limit: int,
               state: _Arrays, pushes: Dict[int, List[Tuple]], alt_mask,
               touched_chunks, offer_chunks,
               paths: BatchedPathStore) -> None:
        """Level-synchronous bucket-queue replay of one BFS phase.

        *pushes* maps bucket level -> pending (rows, nodes) push chunks,
        mirroring the frontier's bucket lists exactly: the outer loop
        drains levels in ascending order, the first sub-round of a level
        processes its accumulated pushes in sorted order (the frontier
        sorts a bucket before draining it), and adoptions made *at* the
        draining level re-enter it as append sub-rounds in push order.
        Pushes below the draining level land in an already-drained
        bucket and are dropped, again exactly like the frontier — such
        nodes re-export only if another pending push reaches them.
        """
        num_nodes = self._plan.num_nodes
        while pushes:
            level = min(pushes)
            chunks = pushes.pop(level)
            first_round = True
            while chunks:
                exp_rows = np.concatenate([chunk[0] for chunk in chunks]) \
                    if len(chunks) > 1 else chunks[0][0]
                exp_nodes = np.concatenate([chunk[1] for chunk in chunks]) \
                    if len(chunks) > 1 else chunks[0][1]
                flat = exp_rows * num_nodes + exp_nodes
                if first_round:
                    # Bucket drain order: sorted, duplicates popped
                    # once.  Seed queues (single chunk, built row-major)
                    # are already sorted and unique.
                    first_round = False
                    presorted = len(chunks) == 1 and len(chunks[0]) > 2
                    if not presorted:
                        order = np.argsort(flat, kind="stable")
                        keep = np.ones(len(order), dtype=bool)
                        keep[1:] = flat[order[1:]] != flat[order[:-1]]
                        order = order[keep]
                        exp_rows = exp_rows[order]
                        exp_nodes = exp_nodes[order]
                else:
                    # Mid-drain appends pop in push order.
                    _vals, first = np.unique(flat, return_index=True)
                    order = np.sort(first)
                    exp_rows = exp_rows[order]
                    exp_nodes = exp_nodes[order]
                chunks = self._drain_queue(
                    phase, base_class, export_limit, state, level,
                    exp_rows, exp_nodes, pushes, alt_mask,
                    touched_chunks, offer_chunks, paths)

    def _drain_queue(self, phase: PhasePlan, base_class: int,
                     export_limit: int, state: _Arrays, level: int,
                     queue_rows, queue_nodes, pushes, alt_mask,
                     touched_chunks, offer_chunks,
                     paths: BatchedPathStore) -> List[Tuple]:
        """Pop one level sub-round's queue; returns same-level re-pushes.

        Pops are optimistically batched: all queue entries export their
        current state in one vectorized round.  That is exact unless an
        adoption lands on a queue entry that pops *later in this very
        queue* — the frontier's sequential drain would show it the
        updated state.  :meth:`_resolve` detects exactly that and
        reports, per origin row, the first contaminated queue position;
        the drain commits each row's pops before its cut and re-gathers
        only the contaminated rows' remainders with the updates applied.
        Origins are independent, so a sibling chain inside one row's
        bucket never re-processes the rest of the batch.  Normal
        topologies never split at all.
        """
        plan = self._plan
        num_nodes = plan.num_nodes
        span = plan.node_span
        max_len = plan.max_len
        # Export gate as a key threshold: class <= limit is one compare.
        gate_key = (export_limit + 1) * max_len * span
        work_pos = state.work_pos
        same_level: List[Tuple] = []
        remaining = self._identity(len(queue_rows))
        queue_flat = queue_rows * num_nodes + queue_nodes
        while len(remaining):
            rem_flat = queue_flat[remaining]
            # A pop exports only when the state changed since the
            # node's last export (the exported-key guard); a gated
            # pop (class above the export limit) consumes the push
            # without exporting or recording.
            export = state.dirty_f[rem_flat] & (
                state.key_f[rem_flat] < gate_key)
            exp_idx = np.nonzero(export)[0]
            if len(exp_idx) == 0:
                break
            exp_flat = rem_flat[exp_idx]
            exp_nodes = queue_nodes[remaining[exp_idx]]
            counts = phase.deg[exp_nodes]
            total = int(counts.sum())
            # Exporting records the guard key: clean before resolving,
            # so an adoption landing back on an already-popped exporter
            # correctly re-dirties it.
            state.dirty_f[exp_flat] = False
            if total == 0:
                break
            # Queue positions (relative to the current remainder) for
            # contamination detection; reset after the round.
            work_pos[rem_flat] = self._identity(len(rem_flat))
            # Ragged expansion: one candidate per (exporter, edge), in
            # (row, node, edge) order — the frontier's pop order.
            ends = np.cumsum(counts)
            edges = self._identity(total) + np.repeat(
                phase.indptr[exp_nodes] - ends + counts, counts)
            # Candidate keys from the exporters' packed keys: siblings
            # propagate the exporter's class, everything else the
            # phase's base class; the edge tail adds hop and tie-break.
            # Sibling edges are rare, so the class override is a sparse
            # fix-up instead of a full select.
            exp_key = state.key_f[exp_flat]
            normal = base_class * max_len + (exp_key // span) % max_len
            # Pre-multiply on the compact exporter side: one fewer
            # full-candidate-size pass per round.
            key = np.repeat(normal * span, counts) + phase.key_tail[edges]
            if phase.has_sib:
                sib = np.nonzero(phase.sib[edges])[0]
                if len(sib):
                    src = np.searchsorted(ends, sib, side="right")
                    key[sib] += (exp_key[src] // span
                                 - normal[src]) * span
            cand_to = phase.dst[edges]
            outcome = self._resolve(
                state, phase,
                flat=np.repeat(exp_flat - exp_nodes, counts) + cand_to,
                cand_to=cand_to,
                edges=edges,
                key=key,
                alt_mask=alt_mask,
                touched_chunks=touched_chunks,
                offer_chunks=offer_chunks,
                paths=paths,
                mark_dirty=True,
                in_queue=True,
            )
            work_pos[rem_flat] = -1
            row_cut, adopted = outcome
            if adopted is not None:
                adopted_rows, adopted_nodes, adopted_len = adopted
                # Push per target bucket: one stable counting split by
                # adopted length instead of an equality scan per level.
                keep = np.nonzero(adopted_len >= level)[0]
                if len(keep) < len(adopted_len):
                    adopted_rows = adopted_rows[keep]
                    adopted_nodes = adopted_nodes[keep]
                    adopted_len = adopted_len[keep]
                if len(adopted_len):
                    # Lengths are far below the uint16 range on any
                    # int32-keyed plan; the narrower radix sort halves
                    # the stable-sort passes.
                    sort_len = (adopted_len.astype(np.uint16)
                                if max_len <= 65535 else adopted_len)
                    order = np.argsort(sort_len, kind="stable")
                    sorted_len = adopted_len[order]
                    run_edge = np.empty(len(sorted_len), dtype=bool)
                    run_edge[0] = True
                    run_edge[1:] = sorted_len[1:] != sorted_len[:-1]
                    starts = np.nonzero(run_edge)[0]
                    bounds = list(starts[1:]) + [len(order)]
                    for start, end in zip(starts, bounds):
                        target_level = int(sorted_len[start])
                        chunk = (adopted_rows[order[start:end]],
                                 adopted_nodes[order[start:end]])
                        if target_level == level:
                            same_level.append(chunk)
                        else:
                            pushes.setdefault(target_level, []).append(chunk)
            if row_cut is None:
                break
            # Pops at or behind their row's cut did not happen: restore
            # their pending export state and re-drain only those rows.
            stale = exp_idx[
                exp_idx >= row_cut[queue_rows[remaining[exp_idx]]]]
            state.dirty_f[rem_flat[stale]] = True
            remaining = remaining[
                self._identity(len(remaining))
                >= row_cut[queue_rows[remaining]]]
        return same_level

    def _peer_hop(self, phase: PhasePlan, state: _Arrays, alt_mask,
                  touched_chunks, offer_chunks,
                  paths: BatchedPathStore) -> None:
        """Simultaneous single-hop peer exchange (phase 2).

        Every node holding an own/customer route offers its *pre-phase*
        state; because the exporter gather happens before any adoption
        is applied, one :meth:`_resolve` call is exactly the frontier's
        staged update.
        """
        plan = self._plan
        exp_rows, exp_nodes = np.nonzero(
            state.key < (CLASS_CUSTOMER + 1) * plan.max_len * plan.node_span)
        if len(exp_rows) == 0:
            return
        counts = phase.deg[exp_nodes]
        total = int(counts.sum())
        if total == 0:
            return
        ends = np.cumsum(counts)
        edges = self._identity(total) + np.repeat(
            phase.indptr[exp_nodes] - ends + counts, counts)
        exp_flat = exp_rows * plan.num_nodes + exp_nodes
        prefix = CLASS_PEER * plan.max_len + (
            state.key_f[exp_flat] // plan.node_span) % plan.max_len
        cand_to = phase.dst[edges]
        self._resolve(
            state, phase,
            flat=np.repeat(exp_flat - exp_nodes, counts) + cand_to,
            cand_to=cand_to,
            edges=edges,
            key=np.repeat(prefix * plan.node_span, counts)
            + phase.key_tail[edges],
            alt_mask=alt_mask,
            touched_chunks=touched_chunks,
            offer_chunks=offer_chunks,
            paths=paths,
            mark_dirty=False,
        )

    # -- candidate resolution -------------------------------------------------

    def _resolve(self, state: _Arrays, phase: PhasePlan, flat, cand_to,
                 edges, key, alt_mask, touched_chunks, offer_chunks, paths,
                 mark_dirty: bool, in_queue: bool = False,
                 ) -> Tuple[Optional[object], Optional[Tuple]]:
        """Resolve one round of candidates against the current state.

        Reproduces the frontier's sequential acceptance exactly: per
        target the winning candidate is the minimum packed route *key*
        (class, length, exporter — see :class:`PropagationPlan`) with
        ties broken by earliest candidate (= CSR edge order), which is
        then adopted only if strictly below the target's current key.
        Offers into alternative-tracking nodes are recorded for every
        candidate, winner or not, in candidate order.  Winner selection
        and first-touch detection run in one fused scatter pass.

        With *in_queue* (bucket-drain rounds, where ``work_pos`` holds
        the exporters' queue positions), an adoption landing on a queue
        entry *behind* its exporter is detected as contamination: the
        frontier's sequential drain would have shown that entry the
        update before it popped.  The round is then truncated, per
        origin row, to the candidates of that row's uncontaminated
        queue prefix.  Returns ``(row_cut, adoptions)``: the per-row
        queue positions the caller must re-drain from (None when every
        row committed fully) and the applied adoptions as ``(rows,
        nodes, lengths)`` arrays.
        """
        plan = self._plan
        num_nodes = plan.num_nodes
        span = plan.node_span
        cur_key = state.key_f[flat]
        better = key < cur_key
        if alt_mask is not self._alt_mask_seen:
            self._alt_mask_seen = alt_mask
            self._alt_any = bool(alt_mask.any())
        offer = alt_mask[cand_to] if self._alt_any else None
        if offer is not None and not offer.any():
            offer = None  # hint: the commit path skips offer recording
        has_better = bool(better.any())
        if not has_better and offer is None:
            return None, None
        # The phase's per-edge metadata decides whether edge ids are
        # needed at all downstream (customer/provider phases carry no
        # vias or bags on ordinary topologies).
        need_edges = phase.has_via or phase.has_bag

        row_cut = None
        if in_queue and has_better:
            tgt_pos = state.work_pos[flat]
            # Exporter queue positions, recovered from the key's
            # tie-break term (the exporter is itself a queue member).
            src_pos = state.work_pos[flat - cand_to + key % span - 1]
            conflict = better & (tgt_pos > src_pos)
            if conflict.any():
                cand_rows = (flat - cand_to) // num_nodes
                row_cut = np.full(state.key.shape[0], _HUGE, dtype=np.int64)
                np.minimum.at(row_cut, cand_rows[conflict],
                              tgt_pos[conflict])
                keep = src_pos < row_cut[cand_rows]
                cand_to, key, flat, better, cur_key = (
                    cand_to[keep], key[keep], flat[keep], better[keep],
                    cur_key[keep])
                if need_edges:
                    edges = edges[keep]
                if offer is not None:
                    offer = offer[keep]
                if len(flat) == 0:
                    return row_cut, None

        n = len(flat)
        newly = cur_key == plan.unset_key
        any_new = bool(newly.any())

        # Candidate keys are bounded by the plan's sentinel, so the
        # packed (key, position) scatter fits int64 whenever
        # unset_key * n does — a static bound, no per-round reduction.
        packable = plan.unset_key < _HUGE // n
        idx = self._identity(n)
        work_key = state.work_key
        if packable:
            combined = key * np.int64(n) + idx
            work_key[flat] = _HUGE
            np.minimum.at(work_key, flat, combined)
            winner = combined == work_key[flat]
        else:  # pragma: no cover - needs astronomically large topologies
            work_key[flat] = _HUGE
            np.minimum.at(work_key, flat, key)
            min_key = key == work_key[flat]
            work_key[flat] = _HUGE
            np.minimum.at(work_key, flat, np.where(min_key, idx, _HUGE))
            winner = idx == work_key[flat]
        first = None
        if any_new:
            work_touch = state.work_touch
            work_touch[flat] = _HUGE
            np.minimum.at(work_touch, flat, np.where(newly, idx, _HUGE))
            first = newly & (idx == work_touch[flat])

        if any_new:
            fidx = np.nonzero(first)[0]
            if len(fidx):
                first_flat = flat[fidx]
                touched_chunks.append(
                    (first_flat // num_nodes, cand_to[fidx]))

        adopt = winner & better
        return row_cut, self._commit(state, phase, paths, flat, cand_to,
                                     edges, key, adopt, offer, offer_chunks,
                                     mark_dirty)

    def _commit(self, state: _Arrays, phase: PhasePlan, paths, flat,
                cand_to, edges, key, adopt, offer, offer_chunks,
                mark_dirty: bool) -> Optional[Tuple]:
        """Materialise and apply one round's winning/recorded candidates.

        Only the few candidates that win or get recorded are
        materialised: class, length and exporter come back out of the
        packed key by division; paths are snapshotted now — the
        exporter's *current* path id, never reconstructed from final
        state (transient exports are part of the contract).  *offer*
        may be None (the round records nothing) and *edges* is only
        read when the phase carries per-edge vias or bags.  Returns the
        applied adoptions as ``(rows, nodes, lengths)`` arrays, or None.
        """
        plan = self._plan
        num_nodes = plan.num_nodes
        span = plan.node_span
        max_len = plan.max_len
        sel = np.nonzero(adopt if offer is None else adopt | offer)[0]
        if len(sel) == 0:
            return None
        sel_flat = flat[sel]
        sel_to = cand_to[sel]
        sel_rows = (sel_flat - sel_to) // num_nodes
        sel_key = key[sel]
        sel_from = sel_key % span - 1
        sel_len = (sel_key // span) % max_len
        from_flat = sel_rows * num_nodes + sel_from
        sel_edges = edges[sel] if phase.has_via or phase.has_bag else None
        parent = state.pid_f[from_flat].astype(np.int64, copy=False)
        if phase.has_via:
            via = phase.via[sel_edges]
            has_via = via >= 0
            if has_via.any():
                parent = parent.copy()
                parent[has_via] = paths.alloc(via[has_via], parent[has_via])
        sel_pid = paths.alloc(plan.node_asns[sel_to], parent)
        sel_bag = state.bag_f[from_flat]
        if phase.has_bag:
            edge_bag = phase.bag[sel_edges]
            merge = np.nonzero(edge_bag != 0)[0]
            if len(merge):
                sel_bag = sel_bag.copy()
                sel_bag[merge] = self._unions.union_many(sel_bag[merge],
                                                         edge_bag[merge])

        if offer is None:
            # No offers this round: every selected candidate is an
            # adoption, apply them without the re-partition.
            state.key_f[sel_flat] = sel_key
            state.pid_f[sel_flat] = sel_pid
            state.bag_f[sel_flat] = sel_bag
            if mark_dirty:
                state.dirty_f[sel_flat] = True
            return sel_rows, sel_to, sel_len

        offer_sel = np.nonzero(offer[sel])[0]
        if len(offer_sel):
            offer_chunks.append(
                (sel_rows[offer_sel], sel_to[offer_sel],
                 (sel_key[offer_sel] // (span * max_len)),
                 sel_len[offer_sel], sel_from[offer_sel],
                 sel_pid[offer_sel], sel_bag[offer_sel]))

        adopt_sel = np.nonzero(adopt[sel])[0]
        if len(adopt_sel) == 0:
            return None
        rows_ = sel_rows[adopt_sel]
        to_ = sel_to[adopt_sel]
        new_len = sel_len[adopt_sel]
        adopt_flat = sel_flat[adopt_sel]
        state.key_f[adopt_flat] = sel_key[adopt_sel]
        state.pid_f[adopt_flat] = sel_pid[adopt_sel]
        state.bag_f[adopt_flat] = sel_bag[adopt_sel]
        if mark_dirty:
            state.dirty_f[adopt_flat] = True
        return rows_, to_, new_len

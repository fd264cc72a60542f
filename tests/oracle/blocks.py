"""The per-block route-block assembly the batch-wide assembler replaced.

:func:`block_from_columns` builds one :class:`~repro.runtime.fragments.
RouteBlock` from one origin's columns: its own ``np.unique`` of the
store-level bag ids (:func:`intern_bags`) and its own
:meth:`~repro.runtime.fragments.PathTable.gather`.  :func:`batch_blocks`
and :func:`frontier_block` are the engine's former per-origin feeds
(per-row touched arrays split from the sweep's adoption chunks, the
recorded-observer mask applied per row), and :func:`per_block_assembler`
pins a :class:`~repro.bgp.propagation.PropagationEngine` to them, so a
test can compare every production block with its per-block twin byte
for byte (:func:`block_bytes`).

:func:`block_from_routes` builds a block from route objects (hand-made
fragments), :func:`fragments_equivalent` compares two ``(best,
offered)`` pairs route for route, ignoring batch-local numbering, and
:func:`link_pairs` lists the adjacent ASN pairs of a block's paths.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, List, Tuple

import numpy as np

from repro.bgp.propagation import PropagationEngine
from repro.runtime.fragments import PathTable, RouteBlock, _row_pairs

#: The column slots of a block, in :class:`RouteBlock` order.
COLUMNS = ("asn", "provenance", "learned_from", "bag_id", "pid",
           "path_offsets", "path_values")


def block_from_routes(routes: Iterable[object]) -> RouteBlock:
    """The columnar form of route objects; the originals are kept as
    the block's row views, so their identity is preserved."""
    routes = list(routes)
    count = len(routes)
    bag_index: dict = {}
    bag_values: List[frozenset] = []
    bag_ids = np.empty(count, dtype=np.int32)
    offsets = np.zeros(count + 1, dtype=np.int64)
    for i, route in enumerate(routes):
        bid = bag_index.get(route.communities)
        if bid is None:
            bid = bag_index[route.communities] = len(bag_values)
            bag_values.append(route.communities)
        bag_ids[i] = bid
        offsets[i + 1] = offsets[i] + len(route.path)
    values = np.fromiter((asn for route in routes for asn in route.path),
                         dtype=np.int64, count=int(offsets[-1]))
    block = RouteBlock(
        asn=np.fromiter((r.asn for r in routes), np.int64, count=count),
        provenance=np.fromiter((r.provenance for r in routes), np.int16,
                               count=count),
        learned_from=np.fromiter(
            (-1 if r.learned_from is None else r.learned_from
             for r in routes), np.int64, count=count),
        bag_id=bag_ids,
        pid=np.full(count, -1, dtype=np.int64),
        path_offsets=offsets,
        path_values=values,
        bag_values=tuple(bag_values),
    )
    block._rows = routes
    return block


def blocks_equivalent(mine: RouteBlock, theirs: RouteBlock) -> bool:
    """Row equality: the same observers, paths, provenances, exporters
    and community bags, row for row.  Batch-local numbering (``pid``,
    the ``bag_id`` -> ``bag_values`` indirection) is not compared: a
    block reused by a delta replay and a recomputed one must agree."""
    if mine is theirs:
        return True
    if len(mine.asn) != len(theirs.asn):
        return False
    if not all(np.array_equal(getattr(mine, column), getattr(theirs, column))
               for column in ("asn", "provenance", "learned_from",
                              "path_offsets", "path_values")):
        return False
    return all(mine.bag_values[a] == theirs.bag_values[b]
               for a, b in zip(mine.bag_id.tolist(), theirs.bag_id.tolist()))


def fragments_equivalent(a, b) -> bool:
    """:func:`blocks_equivalent` over two ``(best, offered)`` pairs."""
    return all(blocks_equivalent(mine, theirs) for mine, theirs in zip(a, b))


def link_pairs(block: RouteBlock):
    """Undirected ``(lo, hi)`` ASN pair arrays adjacent in any path of
    *block*: pairs across row boundaries and ``left == right``
    (prepended) pairs are dropped, duplicates kept."""
    lo, hi, _cells = _row_pairs(block.path_values, block.path_offsets)
    return lo, hi


def intern_bags(bag_ids, bag_value):
    """Map store-level *bag_ids* to block-local ids + a value table
    (ascending store id; each distinct id resolves ``bag_value`` once)."""
    bag_ids = np.asarray(bag_ids, dtype=np.int64)
    if len(bag_ids) == 0:
        return np.empty(0, dtype=np.int32), ()
    unique, inverse = np.unique(bag_ids, return_inverse=True)
    values = tuple(bag_value(int(bid)) for bid in unique.tolist())
    return inverse.astype(np.int32, copy=False), values


def block_from_columns(asns, provenance, learned_from, pids, bag_ids,
                       bag_value, path_table: PathTable) -> RouteBlock:
    """One :class:`RouteBlock` from one origin's store-level columns."""
    pids = np.asarray(pids, dtype=np.int64)
    local_bags, bag_values = intern_bags(bag_ids, bag_value)
    offsets, values = path_table.gather(pids)
    return RouteBlock(
        asn=np.asarray(asns, dtype=np.int64),
        provenance=np.asarray(provenance).astype(np.int16, copy=False),
        learned_from=np.asarray(learned_from, dtype=np.int64),
        bag_id=local_bags,
        pid=pids,
        path_offsets=offsets,
        path_values=values,
        bag_values=bag_values,
    )


def per_origin_touched(batch) -> List:
    """Per-row discovery-ordered touched node arrays (origin first) of a
    compiled :class:`~repro.runtime.compiled.BatchState`, split from its
    adoption chunks."""
    onodes, chunks = batch._onodes, batch._touched_chunks
    if not chunks:
        return [onodes[row:row + 1] for row in range(batch.num_origins)]
    rows = np.concatenate([chunk[0] for chunk in chunks])
    nodes = np.concatenate([chunk[1] for chunk in chunks])
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=batch.num_origins)
    groups = np.split(nodes[order], np.cumsum(counts)[:-1])
    return [np.concatenate((onodes[row:row + 1], group))
            for row, group in enumerate(groups)]


def batch_blocks(engine, batch, mask) -> List[Tuple]:
    """One compiled batch's (best, offered) blocks, origin by origin."""
    node_asns = engine._node_asn_array()
    bag_value = engine._bags.value
    (o_rows, off_to, off_cls, _off_len, off_frm, off_pid,
     off_bag) = batch.offer_columns()
    bounds = np.zeros(batch.num_origins + 1, dtype=np.int64)
    np.cumsum(np.bincount(o_rows, minlength=batch.num_origins),
              out=bounds[1:])
    touched = per_origin_touched(batch)
    if mask is not None:
        touched = [nodes[mask[nodes]] for nodes in touched]
    pid_chunks = [batch.pid[row][nodes] for row, nodes in enumerate(touched)]
    if len(off_pid):
        pid_chunks.append(off_pid)
    heads, parents = batch.paths.columns()
    table = PathTable(heads, parents, np.concatenate(pid_chunks))
    blocks: List[Tuple] = []
    for row in range(batch.num_origins):
        nodes = touched[row]
        frm = batch.frm[row][nodes]
        best = block_from_columns(
            asns=node_asns[nodes],
            provenance=batch.cls[row][nodes],
            learned_from=np.where(
                frm >= 0, node_asns[np.maximum(frm, 0)], -1),
            pids=batch.pid[row][nodes],
            bag_ids=batch.bag[row][nodes],
            bag_value=bag_value,
            path_table=table)
        row_slice = slice(int(bounds[row]), int(bounds[row + 1]))
        o_to = off_to[row_slice]
        o_cls = off_cls[row_slice]
        o_frm = off_frm[row_slice]
        o_pid = off_pid[row_slice]
        o_bag = off_bag[row_slice]
        if mask is not None and len(o_to):
            keep = mask[o_to]
            o_to, o_cls, o_frm, o_pid, o_bag = (
                o_to[keep], o_cls[keep], o_frm[keep], o_pid[keep],
                o_bag[keep])
        offered = block_from_columns(
            asns=node_asns[o_to],
            provenance=o_cls,
            learned_from=node_asns[o_frm],
            pids=o_pid,
            bag_ids=o_bag,
            bag_value=bag_value,
            path_table=table)
        blocks.append((best, offered))
    return blocks


def frontier_block(engine, state, mask) -> Tuple:
    """One frontier origin's (best, offered) blocks, block by block."""
    node_asns = engine._node_asn_array()
    bag_value = engine._bags.value
    nodes = np.asarray(state.touched, dtype=np.int64)
    if mask is not None and len(nodes):
        nodes = nodes[mask[nodes]]
    cls_plane = np.asarray(state.cls, dtype=np.int64)
    frm_plane = np.asarray(state.frm, dtype=np.int64)
    pid_plane = np.asarray(state.pid, dtype=np.int64)
    bag_plane = np.asarray(state.bag, dtype=np.int64)
    if state.offers:
        offer_columns = np.asarray(state.offers, dtype=np.int64)
        if mask is not None:
            offer_columns = offer_columns[mask[offer_columns[:, 0]]]
    else:
        offer_columns = np.empty((0, 6), dtype=np.int64)
    heads, parents = engine._paths.columns()
    best_pids = pid_plane[nodes]
    table = PathTable(heads, parents,
                      np.concatenate((best_pids, offer_columns[:, 4])))
    frm = frm_plane[nodes]
    best = block_from_columns(
        asns=node_asns[nodes],
        provenance=cls_plane[nodes],
        learned_from=np.where(frm >= 0, node_asns[np.maximum(frm, 0)], -1),
        pids=best_pids,
        bag_ids=bag_plane[nodes],
        bag_value=bag_value,
        path_table=table)
    offered = block_from_columns(
        asns=node_asns[offer_columns[:, 0]],
        provenance=offer_columns[:, 1],
        learned_from=node_asns[offer_columns[:, 3]],
        pids=offer_columns[:, 4],
        bag_ids=offer_columns[:, 5],
        bag_value=bag_value,
        path_table=table)
    return best, offered


@contextlib.contextmanager
def per_block_assembler():
    """Run the enclosed block with every engine building its route
    blocks origin by origin (:func:`batch_blocks`,
    :func:`frontier_block`) instead of through the batch-wide
    assembler; kernels and everything else stay production."""
    saved = (PropagationEngine._batch_blocks,
             PropagationEngine._frontier_block)
    PropagationEngine._batch_blocks = batch_blocks
    PropagationEngine._frontier_block = frontier_block
    try:
        yield
    finally:
        (PropagationEngine._batch_blocks,
         PropagationEngine._frontier_block) = saved


def block_bytes(block: RouteBlock) -> Tuple:
    """Every column's dtype and bytes, plus the bag values: two blocks
    with equal ``block_bytes`` are the same block byte for byte."""
    return tuple((name, getattr(block, name).dtype.str,
                  getattr(block, name).tobytes()) for name in COLUMNS) \
        + (block.bag_values,)

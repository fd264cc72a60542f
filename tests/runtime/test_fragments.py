"""Columnar fragment plane: RouteBlock vs object fragments, exactly.

The columnar plane must be invisible to consumers: RouteBlock-backed
fragments iterate into the same routes, in the same order, with the same
provenance/communities/learned_from as eager object fragments, whichever
kernel produced them (:mod:`tests.oracle.kernels`) — and blocks must
survive pickling (the disk cache boundary) bit-identically.  The
object oracle is the frontier kernel's state materialised route by
route (:func:`tests.oracle.propagation.object_fragments`), i.e. the
exact pre-columnar recording path.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.bgp.propagation import OriginSpec, RouteBlock
from repro.runtime import fragments
from repro.runtime.context import PipelineContext
from repro.runtime.fragments import PathTable, intern_rows, walk_paths
from repro.runtime.stores import PathStore

from tests.oracle import propagation as oracle
from tests.oracle.kernels import KERNELS, forced_kernel
from tests.runtime.test_batched import (
    fragment_key,
    random_internet,
    random_origins,
)
from tests.oracle.propagation import (
    context_from_adjacencies,
    materialize,
    result_observers,
)
from tests.oracle.blocks import link_pairs

BLOCK_BACKENDS = KERNELS


def object_fragments(adjacencies, origins, **kwargs):
    """The eager object fragments of *origins* (the oracle)."""
    return oracle.object_fragments(
        context_from_adjacencies(adjacencies), origins, **kwargs)


def object_result(adjacencies, origins, **kwargs):
    """Like :func:`object_fragments` but folded into the oracle's
    dict-fold :class:`~tests.oracle.propagation.ObjectResult`."""
    return oracle.object_result(
        context_from_adjacencies(adjacencies), origins, **kwargs)


# -- vectorized chain walk -----------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 20131209])
def test_walk_paths_matches_scalar_materialize(seed):
    import numpy as np
    rng = random.Random(seed)
    store = PathStore()
    pids = []
    for _ in range(200):
        parent = rng.choice(pids) if pids and rng.random() < 0.7 else -1
        pids.append(store.cons(rng.randrange(64500, 64700), parent))
    sample = rng.sample(pids, k=50)
    heads, parents = store.columns()
    offsets, values = walk_paths(heads, parents, np.asarray(sample))
    for row, pid in enumerate(sample):
        expected = materialize(store, pid)
        assert tuple(values[offsets[row]:offsets[row + 1]]) == expected


def test_path_table_gather_handles_repeats_and_missing():
    import numpy as np
    store = PathStore()
    a = store.cons(64500)
    b = store.cons(64501, a)
    c = store.cons(64502, b)
    heads, parents = store.columns()
    table = PathTable(heads, parents, np.asarray([a, b, c]))
    offsets, values = table.gather(np.asarray([c, -1, a, c]))
    assert offsets.tolist() == [0, 3, 3, 4, 7]
    assert values.tolist() == [64502, 64501, 64500, 64500,
                               64502, 64501, 64500]


# -- block/object differential across backends ---------------------------------


@pytest.mark.parametrize("backend", BLOCK_BACKENDS)
@pytest.mark.parametrize("seed", [5, 77, 20130507, 424242])
def test_blocks_bit_identical_to_object_fragments(seed, backend):
    """RouteBlock-backed fragments iterate into exactly the routes the
    eager object path produced: content, provenance and order, for best
    fragments and Adj-RIB-In offers alike."""
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=12)
    alt = observers[:5]

    expected_fragments = object_fragments(
        adjacencies, origins,
        record_at=observers, record_alternatives_at=alt)
    columnar = context_from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=alt)
    with forced_kernel(backend):
        got_fragments = columnar.batch_fragments(origins)
    for spec, got, expected in zip(origins, got_fragments,
                                   expected_fragments):
        assert isinstance(got[0], RouteBlock), (backend, spec.asn)
        assert isinstance(got[1], RouteBlock), (backend, spec.asn)
        assert fragment_key(got[0]) == fragment_key(expected[0]), \
            (seed, backend, spec.asn, "best")
        assert fragment_key(got[1]) == fragment_key(expected[1]), \
            (seed, backend, spec.asn, "offered")


@pytest.mark.parametrize("backend", BLOCK_BACKENDS)
def test_result_api_matches_object_path(backend):
    """The columnar result answers observers/routes/links exactly like
    the oracle's dict fold, including dict orders."""
    rng = random.Random(1234)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=10)

    expected = object_result(adjacencies, origins, record_at=observers)
    with forced_kernel(backend):
        columnar = context_from_adjacencies(adjacencies).engine(
            record_at=observers).propagate(origins)
    assert columnar.visible_links() == expected.visible_links()
    assert result_observers(columnar) == result_observers(expected)
    for observer in observers:
        assert fragment_key(
            route for _origin, route in columnar.iter_routes_at(observer)
        ) == fragment_key(
            route for _origin, route in expected.iter_routes_at(observer))
        assert [origin for origin, _route in columnar.iter_routes_at(observer)] \
            == [origin for origin, _route in expected.iter_routes_at(observer)]


def test_iter_best_columns_matches_iter_routes():
    rng = random.Random(99)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=8)
    result = context_from_adjacencies(adjacencies).engine(
        record_at=observers).propagate(origins)
    for observer in observers:
        triples = result.iter_best_columns_at(observer)
        assert triples is not None
        columnar = [(origin, int(block.asn[row]), tuple(
                        block.path_values[block.path_offsets[row]:
                                          block.path_offsets[row + 1]]
                        .tolist()),
                     block.bag_values[block.bag_id[row]],
                     int(block.provenance[row]))
                    for origin, block, row in triples]
        objects = [(origin, route.asn, route.path, route.communities,
                    route.provenance)
                   for origin, route in result.iter_routes_at(observer)]
        assert columnar == objects


# -- lazy-view contract --------------------------------------------------------


def test_lazy_row_views_are_cached_and_sliceable():
    rng = random.Random(7)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns, count=3)
    engine = context_from_adjacencies(adjacencies).engine(
        record_at=asns[:6])
    best, offered = engine.batch_fragments(origins)[0]
    assert len(best) == len(best.asn)
    if len(best):
        assert best[0] is best[0]          # row views are built once
        assert best[-1].asn == best.asn.tolist()[-1]
        assert best[:2] == [best[row] for row in range(min(2, len(best)))]
        assert [r.asn for r in best] == best.asn.tolist()
    with pytest.raises(IndexError):
        best[len(best)]
    assert isinstance(offered, RouteBlock)


def test_isolated_origin_is_a_block():
    rng = random.Random(13)
    asns, adjacencies = random_internet(rng)
    lonely = 65333  # not part of the topology
    engine = context_from_adjacencies(adjacencies).engine(
        record_at=[lonely])
    best, offered = engine.batch_fragments(
        [OriginSpec(asn=lonely, prefixes=[])])[0]
    assert isinstance(best, RouteBlock) and isinstance(offered, RouteBlock)
    assert fragment_key(best) == [
        (lonely, (lonely,), frozenset(), 0, None)]
    assert len(offered) == 0


# -- pickling (the disk cache boundary) ----------------------------------------


@pytest.mark.parametrize("backend", BLOCK_BACKENDS)
def test_block_pickle_round_trip(backend):
    """Blocks pickle as arrays; the restored block must yield
    bit-identical routes without any store attached."""
    rng = random.Random(20131209)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=12)
    engine = context_from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=observers[:4])
    with forced_kernel(backend):
        fragments = engine.batch_fragments(origins)
    for spec, (best, offered) in zip(origins, fragments):
        for block in (best, offered):
            clone = pickle.loads(pickle.dumps(block))
            assert isinstance(clone, RouteBlock)
            assert fragment_key(clone) == fragment_key(block), \
                (backend, spec.asn)
            assert clone.path_offsets.tolist() == block.path_offsets.tolist()
            assert clone.bag_values == block.bag_values


# -- link pairs and their cached keys ------------------------------------------


def test_link_keys_pack_link_pairs_once():
    """``link_keys`` is ``link_pairs`` packed as ``(lo << 32) | hi``,
    same order, built once per block; pickling drops the cache."""
    import numpy as np
    rng = random.Random(20130501)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=12)
    engine = context_from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=observers[:4])
    keyed = 0
    for best, offered in engine.batch_fragments(origins):
        for block in (best, offered):
            keys = block.link_keys()
            keyed += len(keys)
            assert keys.dtype == np.uint64
            lo, hi = link_pairs(block)
            assert (keys >> np.uint64(32)).tolist() == lo.tolist()
            assert (keys & np.uint64(0xFFFFFFFF)).tolist() == hi.tolist()
            assert block.link_keys() is keys
            clone = pickle.loads(pickle.dumps(block))
            assert clone._link_keys is None
            assert clone.link_keys().tolist() == keys.tolist()
    assert keyed


def test_link_pairs_skip_empty_rows():
    """Empty rows (no received path) anywhere in a block, last row
    included, neither join their neighbours nor break the walk."""
    import numpy as np

    def block(offsets, values):
        rows = len(offsets) - 1
        return RouteBlock(
            asn=np.arange(rows, dtype=np.int64),
            provenance=np.zeros(rows, dtype=np.int16),
            learned_from=np.full(rows, -1, dtype=np.int64),
            bag_id=np.zeros(rows, dtype=np.int32),
            pid=np.full(rows, -1, dtype=np.int64),
            path_offsets=np.asarray(offsets, dtype=np.int64),
            path_values=np.asarray(values, dtype=np.int64),
            bag_values=(frozenset(),))

    def pairs(b):
        lo, hi = link_pairs(b)
        return list(zip(lo.tolist(), hi.tolist()))

    assert pairs(block([0, 3, 3], [1, 2, 3])) == [(1, 2), (2, 3)]
    assert pairs(block([0, 0, 2], [5, 4])) == [(4, 5)]
    assert pairs(block([0, 2, 2, 4], [1, 2, 3, 4])) == [(1, 2), (3, 4)]
    assert pairs(block([0, 1, 1], [9])) == []
    assert block([0, 3, 3], [1, 2, 3]).link_keys().tolist() == [
        (1 << 32) | 2, (2 << 32) | 3]
    # Values outside the 32-bit ASN space cannot be packed.
    assert block([0, 2], [1, 1 << 32]).link_keys() is None
    assert block([0, 2], [-1, 4]).link_keys() is None


@pytest.mark.parametrize("collide", (False, True))
def test_intern_rows_numbers_rows_by_value(monkeypatch, collide):
    """Rows equal by value share an id, ids count up in first-seen
    order; when every row hashes alike the exact fallback gives the
    same numbering."""
    rng = random.Random(3)
    rows = [tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
            for _ in range(200)]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    values = np.asarray([cell for row in rows for cell in row],
                        dtype=np.int64)
    seen = {}
    expected = [seen.setdefault(row, len(seen)) for row in rows]
    firsts = [rows.index(row) for row in seen]
    if collide:
        monkeypatch.setattr(fragments, "_mix", lambda x: x & np.uint64(0))
    ids, got_firsts = intern_rows(offsets, values)
    assert ids.tolist() == expected
    assert got_firsts.tolist() == firsts

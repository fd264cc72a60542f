"""Differential and unit suite for the compiled multi-origin kernel.

The compiled kernel must reproduce the frontier kernel *exactly* —
fragment content and order, Adj-RIB-In offers, touched order — while
running its rounds through narrow planes and the fused resolve.  The
tests here pin the engine to one kernel per side
(:mod:`tests.oracle.kernels`), so even batches below the production
threshold run compiled.  This module adds the compiled-specific
surfaces on top of the production-rule suite in ``test_batched.py``:
the int32/int64 promotion rule, the path-id overflow guard and batch
sizing.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.propagation import Adjacency, OriginSpec, PropagationEngine
from repro.runtime.compiled import (
    INT32_MAX,
    BatchedPathStore,
    CompiledPropagator,
    PathIdOverflow,
    compiled_batch_size,
    fit_dtype,
)
from repro.runtime.context import PipelineContext

from tests.oracle.kernels import forced_kernel
from tests.runtime.test_batched import (
    fragment_key,
    random_internet,
    random_origins,
)


def pinned(engine, origins, kernel):
    """``engine.batch_fragments(origins)`` with the engine pinned to
    *kernel*."""
    with forced_kernel(kernel):
        return engine.batch_fragments(origins)


def pinned_propagate(engine, origins, kernel):
    with forced_kernel(kernel):
        return engine.propagate(origins)


# -- exact frontier equivalence ------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 20130507, 424242, 999983])
def test_compiled_fragments_bit_identical_to_frontier(seed):
    """Best AND offered fragments match the frontier engine exactly,
    including discovery/offer order, on random policy topologies."""
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=12)
    alt = observers[:5]

    frontier = PipelineContext.from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=alt)
    compiled = PipelineContext.from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=alt)
    for spec, got_f, got_c in zip(origins,
                                  pinned(frontier, origins, "frontier"),
                                  pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0]), \
            (seed, spec.asn, "best")
        assert fragment_key(got_f[1]) == fragment_key(got_c[1]), \
            (seed, spec.asn, "offered")


@pytest.mark.parametrize("seed", [3, 31337])
def test_compiled_record_everything_matches_frontier(seed):
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng, num_ases=40)
    origins = random_origins(rng, asns, count=15)
    frontier = PipelineContext.from_adjacencies(adjacencies).engine()
    compiled = PipelineContext.from_adjacencies(adjacencies).engine()
    for got_f, got_c in zip(pinned(frontier, origins, "frontier"),
                            pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0])


def test_compiled_propagation_result_matches_frontier():
    rng = random.Random(99)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    fast = pinned_propagate(PropagationEngine(adjacencies), origins,
                            "frontier")
    compiled = pinned_propagate(PropagationEngine(adjacencies), origins,
                                "compiled")
    assert fast.visible_links() == compiled.visible_links()
    for origin in origins:
        for asn in asns:
            route_f = fast.best_route(asn, origin.asn)
            route_c = compiled.best_route(asn, origin.asn)
            assert (route_f is None) == (route_c is None)
            if route_f is not None:
                assert fragment_key([route_f]) == fragment_key([route_c])


# -- int32/int64 promotion rule ------------------------------------------------


def test_fit_dtype_boundaries():
    import numpy as np
    assert fit_dtype(0) is np.int32
    assert fit_dtype(INT32_MAX) is np.int32
    assert fit_dtype(INT32_MAX + 1) is np.int64
    # Negative sentinels must not be narrowed on the strength of their
    # magnitude alone; the rule demands a non-negative bound.
    assert fit_dtype(-1) is np.int64


def test_small_plan_uses_int32_planes():
    import numpy as np
    rng = random.Random(8)
    _asns, adjacencies = random_internet(rng)
    plan = PipelineContext.from_adjacencies(adjacencies).plan
    assert plan.key_plane_dtype() is np.int32
    assert plan.summary()["key_plane_bits"] == 32


def _chain_adjacencies(num_ases, extra_peers=0, rng=None):
    """A provider chain (maximal path lengths, so the packed key range
    scales with the node count) plus optional random peer links."""
    asns = [64500 + i for i in range(num_ases)]
    adjacencies = []
    for lower, upper in zip(asns, asns[1:]):
        adjacencies.extend([
            Adjacency(lower, upper, Relationship.PROVIDER),
            Adjacency(upper, lower, Relationship.CUSTOMER),
        ])
    for _ in range(extra_peers):
        a, b = rng.sample(asns, 2)
        adjacencies.append(Adjacency(a, b, Relationship.PEER))
        adjacencies.append(Adjacency(b, a, Relationship.PEER))
    return asns, adjacencies


@pytest.mark.parametrize("seed", [21, 1203])
def test_int64_key_fallback_stays_bit_identical(seed):
    """Topologies whose packed key range exceeds int32 (node counts
    beyond ~2900) promote the planes to int64 and remain bit-identical
    to the frontier engine."""
    import numpy as np
    rng = random.Random(seed)
    asns, adjacencies = _chain_adjacencies(3000, extra_peers=40, rng=rng)
    context = PipelineContext.from_adjacencies(adjacencies)
    assert context.plan.key_plane_dtype() is np.int64

    origins = random_origins(rng, asns, count=3)
    observers = rng.sample(asns, k=25)
    frontier = PipelineContext.from_adjacencies(adjacencies).engine(
        record_at=observers)
    compiled = context.engine(record_at=observers)
    for got_f, got_c in zip(pinned(frontier, origins, "frontier"),
                            pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0])


def test_huge_asns_promote_via_arrays():
    """4-byte ASNs above 2**31 force the via arrays (which hold raw
    ASNs) to int64 while propagation stays exact."""
    import numpy as np
    base = 2**31 + 100
    asns = [base + i for i in range(6)]
    adjacencies = []
    for lower, upper in zip(asns, asns[1:]):
        adjacencies.extend([
            Adjacency(lower, upper, Relationship.PROVIDER),
            Adjacency(upper, lower, Relationship.CUSTOMER),
        ])
    adjacencies.append(Adjacency(
        asns[0], asns[5], Relationship.RS_PEER,
        via_rs_asn=base + 50, rs_transparent=False))
    adjacencies.append(Adjacency(
        asns[5], asns[0], Relationship.RS_PEER,
        via_rs_asn=base + 50, rs_transparent=False))
    context = PipelineContext.from_adjacencies(adjacencies)
    assert context.plan.peer.via.dtype == np.int64

    from repro.bgp.prefix import Prefix
    origins = [OriginSpec(asn=asns[0],
                          prefixes=[Prefix.from_octets(10, 0, 0, 0, 24)])]
    frontier = PipelineContext.from_adjacencies(adjacencies).engine()
    compiled = context.engine()
    for got_f, got_c in zip(pinned(frontier, origins, "frontier"),
                            pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0])


# -- path-id overflow guard ----------------------------------------------------


def test_path_store_id_limit_raises_instead_of_wrapping():
    import numpy as np
    store = BatchedPathStore(capacity=4, id_limit=3)
    store.alloc(np.array([1, 2]), np.array([-1, -1]))
    with pytest.raises(PathIdOverflow, match="id limit"):
        store.alloc(np.array([3, 4]), np.array([-1, -1]))
    # The failed alloc must not have committed any cells.
    assert len(store) == 2


def test_compiled_retries_batch_in_int64_on_overflow():
    """A path-id overflow inside a narrow-plane batch transparently
    re-runs the batch with int64 planes, bit-identically."""
    import numpy as np
    rng = random.Random(17)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns, count=6)
    observers = rng.sample(asns, k=10)

    class TightCompiledPropagator(CompiledPropagator):
        def _make_paths(self, num_origins):
            paths = super()._make_paths(num_origins)
            if self._dtype is np.int32:
                paths.id_limit = 8  # force the overflow path
            return paths

    context = PipelineContext.from_adjacencies(adjacencies)
    propagator = TightCompiledPropagator(context.plan, context.bags)
    nodes = [context.index.id_of[o.asn] for o in origins]
    batch = propagator.run_batch(nodes, [0] * len(nodes))
    assert propagator._dtype is np.int64  # promotion is sticky
    reference = CompiledPropagator(context.plan, context.bags).run_batch(
        nodes, [0] * len(nodes))
    assert np.array_equal(batch.cls, reference.cls)
    assert np.array_equal(batch.frm, reference.frm)
    for got, expected in zip(batch.touched_columns(),
                             reference.touched_columns()):
        assert np.array_equal(got, expected)


# -- batch sizing --------------------------------------------------------------


def test_compiled_batch_size_positive_and_budgeted():
    rng = random.Random(41)
    _asns, adjacencies = random_internet(rng)
    plan = PipelineContext.from_adjacencies(adjacencies).plan
    assert compiled_batch_size(plan) >= 1
    # A starved budget still yields a runnable batch size, and a
    # generous one is capped at the cache-friendly default width.
    assert compiled_batch_size(plan, budget_bytes=1) == 1
    assert compiled_batch_size(plan, budget_bytes=1 << 40) == \
        compiled_batch_size(plan)

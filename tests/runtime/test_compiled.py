"""Differential and unit suite for the compiled multi-origin kernel.

The compiled kernel must reproduce the frontier kernel *exactly* —
fragment content and order, Adj-RIB-In offers, touched order — while
running its rounds through int64 planes and the fused resolve.  The
tests here pin the engine to one kernel per side
(:mod:`tests.oracle.kernels`), so even batches below the production
threshold run compiled.  This module adds the compiled-specific
surfaces on top of the production-rule suite in ``test_batched.py``:
packed keys beyond the int32 range, ASNs above ``2**31`` and batch
sizing.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.propagation import OriginSpec
from repro.runtime.compiled import compiled_batch_size

from tests.oracle.kernels import forced_kernel
from tests.runtime.test_batched import (
    fragment_key,
    random_internet,
    random_origins,
)
from tests.oracle.propagation import (
    Adjacency,
    best_route,
    context_from_adjacencies,
    engine_from_adjacencies,
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

    frontier = context_from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=alt)
    compiled = context_from_adjacencies(adjacencies).engine(
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
    frontier = context_from_adjacencies(adjacencies).engine()
    compiled = context_from_adjacencies(adjacencies).engine()
    for got_f, got_c in zip(pinned(frontier, origins, "frontier"),
                            pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0])


def test_compiled_propagation_result_matches_frontier():
    rng = random.Random(99)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    fast = pinned_propagate(engine_from_adjacencies(adjacencies), origins,
                            "frontier")
    compiled = pinned_propagate(engine_from_adjacencies(adjacencies), origins,
                                "compiled")
    assert fast.visible_links() == compiled.visible_links()
    for origin in origins:
        for asn in asns:
            route_f = best_route(fast, asn, origin.asn)
            route_c = best_route(compiled, asn, origin.asn)
            assert (route_f is None) == (route_c is None)
            if route_f is not None:
                assert fragment_key([route_f]) == fragment_key([route_c])


# -- values beyond the int32 range --------------------------------------------


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
    beyond ~2900) stay bit-identical to the frontier engine."""
    rng = random.Random(seed)
    asns, adjacencies = _chain_adjacencies(3000, extra_peers=40, rng=rng)
    context = context_from_adjacencies(adjacencies)
    assert context.plan.unset_key > (1 << 31) - 1

    origins = random_origins(rng, asns, count=3)
    observers = rng.sample(asns, k=25)
    frontier = context_from_adjacencies(adjacencies).engine(
        record_at=observers)
    compiled = context.engine(record_at=observers)
    for got_f, got_c in zip(pinned(frontier, origins, "frontier"),
                            pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0])


def test_huge_asns_promote_via_arrays():
    """4-byte ASNs above 2**31 (in the via arrays, which hold raw
    ASNs) keep propagation exact."""
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
    context = context_from_adjacencies(adjacencies)

    from repro.bgp.prefix import Prefix
    origins = [OriginSpec(asn=asns[0],
                          prefixes=[Prefix.from_octets(10, 0, 0, 0, 24)])]
    frontier = context_from_adjacencies(adjacencies).engine()
    compiled = context.engine()
    for got_f, got_c in zip(pinned(frontier, origins, "frontier"),
                            pinned(compiled, origins, "compiled")):
        assert fragment_key(got_f[0]) == fragment_key(got_c[0])


# -- batch sizing --------------------------------------------------------------


def test_compiled_batch_size_positive_and_budgeted():
    rng = random.Random(41)
    _asns, adjacencies = random_internet(rng)
    plan = context_from_adjacencies(adjacencies).plan
    assert compiled_batch_size(plan) >= 1
    # A starved budget still yields a runnable batch size, and a
    # generous one is capped at the cache-friendly default width.
    assert compiled_batch_size(plan, budget_bytes=1) == 1
    assert compiled_batch_size(plan, budget_bytes=1 << 40) == \
        compiled_batch_size(plan)

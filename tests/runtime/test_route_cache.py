"""RouteCache byte-bounded LRU eviction and exact accounting."""

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.propagation import OriginSpec
from repro.runtime.context import (
    PipelineContext,
    RouteCache,
    _ROUTE_OBJECT_BYTES,
    _fragments_nbytes,
)

from tests.oracle.propagation import (
    best_route,
    bidirectional_adjacencies,
    context_from_adjacencies,
)


def frag(best: int, offered: int = 0):
    """A fragment pair of *best*/*offered* plain routes: charged the
    flat per-route estimate, so sizes are predictable in tests."""
    return ([object()] * best, [object()] * offered)


UNIT = _ROUTE_OBJECT_BYTES  # bytes charged per object route


class TestUnbounded:
    def test_no_eviction_without_budget(self):
        cache = RouteCache()
        for i in range(100):
            cache[i] = frag(10)
        assert len(cache) == 100
        assert cache.evictions == 0
        assert cache.bytes == 100 * 10 * UNIT
        assert cache.max_bytes is None

    def test_hit_miss_counters(self):
        cache = RouteCache()
        cache["a"] = frag(1)
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert (cache.hits, cache.misses) == (1, 1)


class TestLRUEviction:
    def test_evicts_least_recently_used_first(self):
        cache = RouteCache(max_bytes=3 * UNIT)
        cache["a"] = frag(1)
        cache["b"] = frag(1)
        cache["c"] = frag(1)
        assert cache.get("a") is not None  # touch: a is now most recent
        cache["d"] = frag(1)               # over budget -> evict oldest
        assert "b" not in cache            # b was least recently used
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.evictions == 1

    def test_accounting_stays_exact_under_eviction(self):
        cache = RouteCache(max_bytes=10 * UNIT)
        sizes = [3, 5, 2, 7, 1, 4]
        for i, size in enumerate(sizes):
            cache[i] = frag(size)
        resident = sum(_fragments_nbytes(cache[key]) for key in
                       [k for k in range(len(sizes)) if k in cache])
        assert cache.bytes == resident
        assert cache.bytes <= cache.max_bytes
        assert len(cache) + cache.evictions == len(sizes)

    def test_newest_entry_survives_even_oversize(self):
        cache = RouteCache(max_bytes=UNIT)
        cache["huge"] = frag(50)
        assert "huge" in cache                 # never evict what was
        assert cache.bytes == 50 * UNIT        # just stored
        cache["small"] = frag(1)               # next insert displaces it
        assert "huge" not in cache
        assert "small" in cache
        assert cache.bytes == UNIT

    def test_replacing_a_key_subtracts_old_bytes(self):
        cache = RouteCache(max_bytes=100 * UNIT)
        cache["a"] = frag(10)
        cache["a"] = frag(2)
        assert cache.bytes == 2 * UNIT
        assert len(cache) == 1

    def test_hit_reinsertion_keeps_bytes_constant(self):
        cache = RouteCache(max_bytes=100 * UNIT)
        cache["a"] = frag(3)
        cache["b"] = frag(4)
        before = cache.bytes
        cache.get("a")
        assert cache.bytes == before
        assert len(cache) == 2

    def test_set_max_bytes_evicts_immediately(self):
        cache = RouteCache()
        for i in range(10):
            cache[i] = frag(1)
        cache.set_max_bytes(4 * UNIT)
        assert len(cache) == 4
        assert cache.bytes == 4 * UNIT
        assert cache.evictions == 6
        assert set(range(6, 10)).issubset(set(cache._entries))
        cache.set_max_bytes(None)              # unbound again
        cache[99] = frag(100)
        assert cache.evictions == 6

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RouteCache(max_bytes=-1)
        with pytest.raises(ValueError):
            RouteCache().set_max_bytes(-5)

    def test_stats_and_repr_expose_budget(self):
        cache = RouteCache(max_bytes=2 * UNIT)
        cache["a"] = frag(1)
        cache["b"] = frag(1)
        cache["c"] = frag(1)
        assert cache.evictions == 1
        assert cache.max_bytes == 2 * UNIT
        assert cache.bytes == 2 * UNIT


class TestContextIntegration:
    def test_context_knob_bounds_route_cache(self):
        adjacencies = bidirectional_adjacencies(10, 20, Relationship.PROVIDER)
        context = context_from_adjacencies(
            adjacencies, route_cache_max_bytes=123)
        assert context.route_cache.max_bytes == 123
        assert context.route_cache.evictions == 0

    def test_engine_memoisation_survives_oversize_budget(self):
        # A budget smaller than one fragment pair must not break the
        # engine's read-your-own-write memoisation within a propagate.
        from repro.bgp.prefix import Prefix
        adjacencies = bidirectional_adjacencies(10, 20, Relationship.PROVIDER)
        context = context_from_adjacencies(
            adjacencies, route_cache_max_bytes=1)
        engine = context.engine(record_at=[10, 20])
        origin = OriginSpec(asn=10, prefixes=[Prefix.parse("10.0.0.0/24")])
        result = engine.propagate([origin])
        assert best_route(result, 20, 10) is not None
        assert len(context.route_cache) <= 1

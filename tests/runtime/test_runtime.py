"""Unit tests for the repro.runtime substrate."""

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.propagation import Adjacency
from repro.runtime import (
    BitsetIndex,
    CSRIndex,
    CommunityBagStore,
    Interner,
    PathStore,
    PipelineContext,
)
from repro.runtime.bitset import iter_bits
from repro.runtime.csr import REL_CUSTOMER, REL_PROVIDER

from tests.oracle.propagation import (
    bidirectional_adjacencies,
    context_from_adjacencies,
    index_from_adjacencies,
    materialize,
)


class TestInterner:
    def test_dense_ids_in_first_intern_order(self):
        interner = Interner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert len(interner) == 2
        assert interner.value_of(1) == "b"
        assert interner.id_map["b"] == 1

    def test_sorted_input_gives_sorted_ids(self):
        asns = [20, 5, 90, 7]
        interner = Interner(sorted(asns))
        ids = [interner.id_map[asn] for asn in sorted(asns)]
        assert ids == sorted(ids)

    def test_get_and_contains(self):
        interner = Interner(["x"])
        assert "x" in interner
        assert "y" not in interner
        assert [interner.intern(value) for value in ("x", "y")] == [0, 1]


class TestPathStore:
    def test_cons_and_materialize_share_suffixes(self):
        store = PathStore()
        origin = store.cons(10)
        via_20 = store.cons(20, origin)
        via_30 = store.cons(30, via_20)
        sibling = store.cons(31, via_20)
        assert materialize(store, via_30) == (30, 20, 10)
        assert materialize(store, sibling) == (31, 20, 10)
        assert materialize(store, origin) == (10,)
        # The shared suffix is the same tuple object (memoised).
        assert materialize(store, via_30)[1:] == materialize(store, via_20)

    def test_clear(self):
        store = PathStore()
        store.cons(1)
        store.clear()
        assert len(store) == 0


class TestCommunityBagStore:
    def test_empty_bag_is_id_zero(self):
        store = CommunityBagStore()
        assert store.intern(frozenset()) == CommunityBagStore.EMPTY
        assert store.value(0) == frozenset()

    def test_union_memoised_and_shared(self):
        store = CommunityBagStore()
        a = store.intern(frozenset({Community(1, 1)}))
        b = store.intern(frozenset({Community(2, 2)}))
        merged = store.union(a, b)
        assert store.value(merged) == {Community(1, 1), Community(2, 2)}
        assert store.union(a, b) == merged
        assert store.union(b, a) == merged
        assert store.union(a, 0) == a
        assert store.union(0, b) == b
        assert store.union(a, a) == a


class TestCSRIndex:
    def test_node_ids_sorted_by_asn(self):
        adjacencies = bidirectional_adjacencies(30, 10, Relationship.PROVIDER)
        index = index_from_adjacencies(adjacencies)
        assert list(index.node_asns) == [10, 30]
        assert index.id_of[10] == 0 and index.id_of[30] == 1

    def test_phase_partitioning(self):
        adjacencies = bidirectional_adjacencies(10, 20, Relationship.PROVIDER)
        adjacencies.append(Adjacency(10, 30, Relationship.PEER))
        index = index_from_adjacencies(adjacencies)
        assert len(index.customer_edges.targets) == 1
        assert index.customer_edges.rels == [REL_CUSTOMER]
        assert len(index.provider_edges.targets) == 1
        assert index.provider_edges.rels == [REL_PROVIDER]
        assert len(index.peer_edges.targets) == 1
        assert index.num_edges == 3
        assert index.num_nodes == 3

    def test_edge_communities_interned(self):
        tag = frozenset({Community(6695, 99)})
        index = index_from_adjacencies([
            Adjacency(10, 20, Relationship.RS_PEER, communities=tag)])
        bag_id = index.peer_edges.bags[0]
        assert bag_id != 0
        assert index.bags.value(bag_id) == tag


class TestBitsetIndex:
    def test_masks_roundtrip(self):
        index = BitsetIndex([30, 10, 20])
        assert index.universe == (10, 20, 30)
        mask = index.mask_of([20, 30, 999])
        assert list(iter_bits(mask)) == [1, 2]
        assert index.full_mask == 0b111
        assert list(iter_bits(0b101)) == [0, 2]


class TestPipelineContext:
    def _context(self):
        adjacencies = bidirectional_adjacencies(10, 20, Relationship.PROVIDER)
        return context_from_adjacencies(adjacencies)

    def test_member_index_cached_until_population_changes(self):
        context = self._context()
        first = context.member_index("DE-CIX", [1, 2, 3])
        assert context.member_index("DE-CIX", [3, 2, 1]) is first
        changed = context.member_index("DE-CIX", [1, 2])
        assert changed is not first

    def test_from_graph_indexes_linked_ases(self):
        from repro.topology.as_graph import ASGraph, ASNode
        graph = ASGraph()
        graph.add_as(ASNode(asn=10))
        graph.add_as(ASNode(asn=20))
        graph.add_c2p(10, 20)
        graph.add_as(ASNode(asn=30))
        context = PipelineContext.from_graph(graph)
        assert context.index.num_nodes == 2  # AS30 has no links yet

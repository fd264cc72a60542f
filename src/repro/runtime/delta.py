"""Frontier-limited delta recompute over a prior propagation result.

A single topology event — a session flap, an RS policy edit, a member
join/leave — can only change the routes of origins whose valley-free
propagation cone crosses the changed edge or policy.  This module
computes that affected set directly on the CSR index and patches a
prior :class:`~repro.bgp.propagation.PropagationResult`: only affected
origins are re-run through the propagation kernels, every other
origin's columnar :class:`RouteBlock` is reused byte-for-byte from the
baseline.

Affected-set soundness
----------------------
Valley-free forward propagation from an origin is: a climb over
customer-phase edges, at most one peer-phase hop, then a descent over
provider-phase edges.  :func:`affected_update` computes, on the
**pre-event** state, a sound superset of the origins whose recorded
fragments can change — per change kind:

* **Removed edges and policy/bag edits are exact.**  Removing an edge
  only removes candidate routes, and route selection is a pure function
  of the offered paths, so a recorded fragment changes iff one of its
  recorded paths crossed the removed edge (a non-recorded node whose
  best route used the edge forwards that full path to every recorded
  observer downstream of it, so the crossing is always visible in the
  prior blocks).  Likewise an edited member's route-server communities
  ride only routes whose path visits the member.
  :func:`origins_touching` looks those pairs/nodes up in one vectorized
  pass over the prior result's blocks: removed pairs against each
  block's cached packed link keys (:meth:`RouteBlock.link_keys`, built
  once per block and reused with it from result to result), visited
  nodes against the raw path values.
* **Added edges use the first-crossing argument plus export scoping.**
  A new route through an added edge must reach one endpoint via
  pre-event edges.  What crosses, and where the change can surface, is
  bounded by valley-free export rules:

  - a ``customer -> provider`` crossing carries only the customer's
    cone (its transitive customers plus itself) and re-exports
    globally, so the customer's :func:`customer_cone` is always
    affected;
  - a ``provider -> customer`` crossing can carry anything the provider
    holds, but the route then only descends — it surfaces solely at
    observers at or below the customer endpoint.  When no recording
    observer sits there, the descent direction affects nothing; when
    one does, the provider side falls back to the conservative
    three-phase backward cone (:func:`affected_origins`);
  - a peer crossing carries each exporter's customer cone and surfaces
    only at or below the importer, so each side's cone is gated on an
    observer below the other side.

Origins outside the computed set provably record identical fragments on
the post-event index, so their blocks are safe to reuse without
comparison.  :func:`affected_origins` — the three phases run *backward
from seed ASNs* (``S3`` backward over provider edges, ``S2`` one
backward peer hop, ``S1`` backward over customer edges) — remains the
conservative fallback for changes with no sharper analysis
(sibling/unknown edges).

NOTE: this module imports :mod:`repro.bgp.propagation` at module level;
that is only acyclic because ``repro/runtime/__init__.py`` deliberately
does NOT import ``repro.runtime.delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.bgp.propagation import OriginSpec, PropagationResult, RouteBlock
from repro.runtime.csr import CSRIndex, PhaseEdges
from repro.runtime.fragments import MAX_KEYED, key_links, pack_links

#: One origin's recorded fragments, as the engine returns them:
#: ``(best, offered)`` RouteBlocks.
Fragments = Tuple[RouteBlock, RouteBlock]

#: Computes fragments for the stale origins, in spec order — typically
#: ``engine.batch_fragments``.
FragmentsFn = Callable[[Sequence[OriginSpec]], List[Fragments]]


def _reverse_lists(phase: PhaseEdges, num_nodes: int) -> List[List[int]]:
    """Reverse adjacency (target -> sources) of one phase's CSR edges."""
    reverse: List[List[int]] = [[] for _ in range(num_nodes)]
    indptr, targets = phase.indptr, phase.targets
    for source in range(num_nodes):
        for edge in range(indptr[source], indptr[source + 1]):
            reverse[targets[edge]].append(source)
    return reverse


def _backward_closure(marked: bytearray, frontier: List[int],
                      reverse: List[List[int]]) -> None:
    """Mark, in place, everything reaching a marked node over *reverse*."""
    while frontier:
        node = frontier.pop()
        for source in reverse[node]:
            if not marked[source]:
                marked[source] = 1
                frontier.append(source)


def affected_origins(
    index: CSRIndex,
    seeds: Iterable[int],
    origins: Iterable[int],
) -> FrozenSet[int]:
    """Origins whose propagation cone can cross any seed ASN.

    *index* must be the **pre-event** index (see the module docstring's
    soundness argument); *seeds* are the ASNs adjacent to the change.
    Seed ASNs absent from the index (isolated nodes) still taint
    themselves: a new link may connect them.
    """
    seed_asns = set(seeds)
    if not seed_asns:
        return frozenset()
    origins = list(origins)
    num_nodes = index.num_nodes
    marked = bytearray(num_nodes)
    frontier: List[int] = []
    for asn in seed_asns:
        node = index.id_of.get(asn)
        if node is not None and not marked[node]:
            marked[node] = 1
            frontier.append(node)

    # S3: backward over the provider phase (descents ending at a seed).
    _backward_closure(marked, frontier,
                      _reverse_lists(index.provider_edges, num_nodes))
    # S2: one backward peer hop into S3.  Scanned against a fixed copy
    # of S3 so a freshly marked source never chains a second peer hop.
    peer = index.peer_edges
    in_s3 = bytes(marked)
    for source in range(num_nodes):
        if marked[source]:
            continue
        for edge in range(peer.indptr[source], peer.indptr[source + 1]):
            if in_s3[peer.targets[edge]]:
                marked[source] = 1
                break
    # S1: backward over the customer phase (climbs reaching S2).
    _backward_closure(marked, [n for n in range(num_nodes) if marked[n]],
                      _reverse_lists(index.customer_edges, num_nodes))

    id_of = index.id_of
    affected = set()
    for asn in origins:
        node = id_of.get(asn)
        if (node is not None and marked[node]) or asn in seed_asns:
            affected.add(asn)
    return frozenset(affected)


def customer_cone(index: CSRIndex, asn: int) -> FrozenSet[int]:
    """*asn* plus every ASN whose valley-free climb can reach it
    (transitive customers over customer-phase edges, siblings included).
    ASNs absent from the index cone onto themselves."""
    node = index.id_of.get(asn)
    if node is None:
        return frozenset({asn})
    marked = bytearray(index.num_nodes)
    marked[node] = 1
    _backward_closure(marked, [node],
                      _reverse_lists(index.customer_edges, index.num_nodes))
    node_asns = index.node_asns
    return frozenset(node_asns[n] for n in range(index.num_nodes)
                     if marked[n])


def _observer_below(index: CSRIndex, asn: int,
                    records: Optional[FrozenSet[int]]) -> bool:
    """Does a recording observer sit at *asn* or in its descent (its
    provider-phase reachable set)?  ``records=None`` means the engine
    records everywhere."""
    if records is None:
        return True
    if asn in records:
        return True
    node = index.id_of.get(asn)
    if node is None:
        return False
    indptr = index.provider_edges.indptr
    targets = index.provider_edges.targets
    node_asns = index.node_asns
    marked = bytearray(index.num_nodes)
    marked[node] = 1
    frontier = [node]
    while frontier:
        source = frontier.pop()
        for edge in range(indptr[source], indptr[source + 1]):
            target = targets[edge]
            if not marked[target]:
                if node_asns[target] in records:
                    return True
                marked[target] = 1
                frontier.append(target)
    return False


def _pair_keys(pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Sorted link keys (:func:`~repro.runtime.fragments.pack_links`)
    of undirected *pairs*.  A pair outside the 32-bit key space can
    match no keyed block and is left out."""
    lo = np.array([min(a, b) for a, b in pairs], dtype=np.int64)
    hi = np.array([max(a, b) for a, b in pairs], dtype=np.int64)
    fits = (lo >= 0) & (hi <= MAX_KEYED)
    return np.unique(pack_links(lo[fits], hi[fits]))


#: Blocks per membership test in :func:`origins_touching`: bounds the
#: concatenated copy and the test's temporaries (a sort-based test
#: holds several copies) whatever the result's size.
_CHUNK_BLOCKS = 128


def _holding(columns: List[np.ndarray], query: np.ndarray) -> np.ndarray:
    """Per column: does it hold any value of *query*?  One membership
    test per chunk of concatenated columns; hits map back to their
    column through the cumulative column lengths."""
    held = np.zeros(len(columns), dtype=bool)
    for first in range(0, len(columns), _CHUNK_BLOCKS):
        chunk = columns[first:first + _CHUNK_BLOCKS]
        ends = np.cumsum([len(column) for column in chunk])
        # kind="sort" keeps a few-value query on numpy's compare loop;
        # the default would first build a table over the query's range.
        hits = np.flatnonzero(np.isin(np.concatenate(chunk), query,
                                      kind="sort"))
        held[first + np.searchsorted(ends, hits, side="right")] = True
    return held


def origins_touching(
    prior: PropagationResult,
    pairs: Iterable[Tuple[int, int]] = (),
    visits: Iterable[int] = (),
) -> Set[int]:
    """Origins whose recorded fragments cross any of *pairs* (as an
    adjacent undirected path hop within one row; ``(a, a)`` prepends
    never match) or visit any ASN in *visits*, in the best **or** the
    offered block.

    This is the exact affected set for edge removals and for policy/bag
    edits (see the module docstring).  It is answered in one vectorized
    pass per query kind: the blocks' cached link keys
    (:meth:`RouteBlock.link_keys`; blocks not keyed yet are keyed
    together by :func:`~repro.runtime.fragments.key_links`) or raw path
    values are concatenated in recording order and tested against the
    sorted query.  A block whose path values do not fit the 32-bit key
    space cannot be keyed and counts as crossing every pair — sound,
    since recomputing an origin never changes its fragments.
    """
    pairs = list(pairs)
    visit_query = np.unique(np.fromiter(visits, dtype=np.int64))
    if not pairs and not len(visit_query):
        return set()
    fragments = prior.recorded_fragments()
    blocks = [block for pair in fragments.values() for block in pair]
    touched = np.zeros(len(blocks), dtype=bool)
    if pairs:
        key_links(blocks)
        keys = [block.link_keys() for block in blocks]
        for position, column in enumerate(keys):
            if column is None:
                touched[position] = True
                keys[position] = np.empty(0, dtype=np.uint64)
        touched |= _holding(keys, _pair_keys(pairs))
    if len(visit_query):
        touched |= _holding([block.path_values for block in blocks],
                            visit_query)
    # Blocks alternate best, offered per origin in recording order.
    per_origin = touched.reshape(-1, 2).any(axis=1)
    return {origin for origin, hit in zip(fragments, per_origin.tolist())
            if hit}


#: Link-change kinds accepted by :func:`affected_update`.
KIND_C2P = "c2p"      #: ``(customer, provider)`` endpoints, in that order
KIND_PEER = "peer"    #: peer / route-server peer edge
KIND_OTHER = "other"  #: sibling or unknown — conservative backward cone

#: ``(kind, a, b)`` — one changed undirected edge.
LinkChange = Tuple[str, int, int]


def affected_update(
    prior: PropagationResult,
    index: CSRIndex,
    origins: Iterable[int],
    records: Optional[FrozenSet[int]],
    removed: Iterable[Tuple[int, int]] = (),
    added: Iterable[LinkChange] = (),
    tainted: Iterable[int] = (),
) -> FrozenSet[int]:
    """Origins whose fragments can change under one event's batch of
    changes — the sharp affected set (soundness: module docstring).

    *prior* and *index* describe the **pre-event** state; *records* is
    the union of the recording observer sets (``None`` = everywhere);
    *removed* holds the endpoint pairs of removed edges, *added* the
    :data:`LinkChange` tuples of added edges (``KIND_C2P`` with the
    customer first), *tainted* the ASNs whose attached route-server
    communities changed.  Batching is sound because events never mix
    customer-phase edits with the peer-link maintenance that relies on
    customer cones staying fixed.
    """
    origin_list = list(origins)
    affected: Set[int] = set(
        origins_touching(prior, pairs=removed, visits=tainted))
    for kind, a, b in added:
        if kind == KIND_C2P:
            affected |= customer_cone(index, a)
            if _observer_below(index, a, records):
                affected |= affected_origins(index, {b}, origin_list)
        elif kind == KIND_PEER:
            if _observer_below(index, b, records):
                affected |= customer_cone(index, a)
            if _observer_below(index, a, records):
                affected |= customer_cone(index, b)
        else:
            affected |= affected_origins(index, {a, b}, origin_list)
    return frozenset(asn for asn in origin_list if asn in affected)


@dataclass(frozen=True)
class DeltaStats:
    """Recompute accounting for one patched result."""

    total: int       #: origins in the patched result
    recomputed: int  #: origins re-run through the kernels
    reused: int      #: origins whose baseline blocks were reused


def patched_result(
    prior: PropagationResult,
    origin_specs: Sequence[OriginSpec],
    stale: Iterable[int],
    fragments_fn: FragmentsFn,
) -> Tuple[PropagationResult, DeltaStats]:
    """A fresh result: *stale* origins recomputed, the rest reused.

    *origin_specs* is the **post-event** origin list in recording order;
    origins absent from *prior* (new announcers) are recomputed
    regardless of *stale*, origins absent from *origin_specs* silently
    drop out.  Reused ``(best, offered)`` fragments are the baseline's
    exact objects — byte-for-byte block reuse, no copies.
    """
    prior_map = prior.recorded_fragments()
    stale = set(stale)
    recompute = [spec for spec in origin_specs
                 if spec.asn in stale or spec.asn not in prior_map]
    fresh: Dict[int, Fragments] = {
        spec.asn: fragments for spec, fragments in
        zip(recompute, fragments_fn(recompute))
    }
    result = PropagationResult()
    for spec in origin_specs:
        best, offered = fresh.get(spec.asn) or prior_map[spec.asn]
        result._record(spec, best, offered)
    stats = DeltaStats(total=len(origin_specs),
                       recomputed=len(recompute),
                       reused=len(origin_specs) - len(recompute))
    return result, stats

"""CSR-style adjacency index over a policy-annotated AS topology.

Built once per topology (``ASGraph.build_index()``) and shared by every
propagation run.  Nodes are ASNs interned in sorted order, so comparing
node ids is the same as comparing ASNs — the propagation tie-break
("lowest neighbour ASN wins") therefore works directly on ids.

The directed edges are pre-partitioned into the three valley-free
phases, each stored as flat parallel arrays in compressed-sparse-row
layout, so the frontier BFS never tests relationships in its inner loop:

* **customer phase** — edges whose importer sees the exporter as a
  CUSTOMER, plus transparent SIBLING edges;
* **peer phase** — PEER and RS_PEER edges;
* **provider phase** — edges whose importer sees the exporter as a
  PROVIDER, plus SIBLING edges.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.bgp.policy import Relationship
from repro.runtime.frontier import (
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    REL_RS_PEER,
    REL_SIBLING,
)
from repro.runtime.interning import Interner
from repro.runtime.stores import CommunityBagStore

#: Relationship -> REL_* code.
REL_CODE = {
    Relationship.CUSTOMER: REL_CUSTOMER,
    Relationship.PROVIDER: REL_PROVIDER,
    Relationship.PEER: REL_PEER,
    Relationship.RS_PEER: REL_RS_PEER,
    Relationship.SIBLING: REL_SIBLING,
}

#: The REL_* codes of the customer, peer and provider phase.
_PHASE_RELS = ((REL_CUSTOMER, REL_SIBLING), (REL_PEER, REL_RS_PEER),
               (REL_PROVIDER, REL_SIBLING))


class DirectedEdges(NamedTuple):
    """Directed propagation edges as parallel columns in ASN space: the
    input of :meth:`CSRIndex.from_edges` and :meth:`CSRIndex.spliced`."""

    sources: Sequence[int]  #: exporting ASN per edge
    targets: Sequence[int]  #: importing ASN per edge
    rels: Sequence[int]     #: REL_* code of the exporter, seen by the importer
    bags: Sequence[int]     #: community-bag id attached on the edge (0 = none)
    vias: Sequence[int]     #: RS ASN inserted in the path, -1 when transparent


#: No edges (the default of :meth:`CSRIndex.spliced`'s *retagged*).
NO_EDGES = DirectedEdges((), (), (), (), ())


class PhaseEdges(NamedTuple):
    """One propagation phase's edges in CSR layout (parallel arrays)."""

    indptr: List[int]    #: per-node slice starts, length num_nodes + 1
    targets: List[int]   #: importing node id per edge
    rels: List[int]      #: REL_* code per edge
    bags: List[int]      #: community-bag id attached on the edge (0 = none)
    vias: List[int]      #: RS ASN inserted in the path, -1 when transparent


class CSRIndex:
    """The per-topology adjacency index."""

    __slots__ = ("asns", "node_asns", "id_of", "bags",
                 "customer_edges", "peer_edges", "provider_edges",
                 "num_nodes", "num_edges")

    def __init__(
        self,
        asns: Interner,
        bags: CommunityBagStore,
        customer_edges: PhaseEdges,
        peer_edges: PhaseEdges,
        provider_edges: PhaseEdges,
        num_edges: int,
    ) -> None:
        #: ASN interner; ids ascend with ASN value.
        self.asns = asns
        #: node id -> ASN (alias of the interner's value table).
        self.node_asns = asns.values
        #: ASN -> node id (alias of the interner's id map).
        self.id_of = asns.id_map
        #: the community-bag store edge bag ids refer to.
        self.bags = bags
        self.customer_edges = customer_edges
        self.peer_edges = peer_edges
        self.provider_edges = provider_edges
        self.num_nodes = len(asns)
        self.num_edges = num_edges

    # -- construction --------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: DirectedEdges,
                   bags: CommunityBagStore) -> "CSRIndex":
        """Assemble the index from directed edge columns in ASN space.

        The one assembler of every full build: node ids are the sorted
        distinct endpoint ASNs, and each phase holds its edges in a
        stable ``(source, target)`` order, so duplicate pairs keep their
        input order.  *bags* is the store ``edges.bags`` refer to.
        """
        sources = np.asarray(edges.sources, dtype=np.int64)
        targets = np.asarray(edges.targets, dtype=np.int64)
        rels = np.asarray(edges.rels, dtype=np.int64)
        edge_bags = np.asarray(edges.bags, dtype=np.int64)
        vias = np.asarray(edges.vias, dtype=np.int64)
        node_asns = np.unique(np.concatenate((sources, targets)))
        num_nodes = len(node_asns)
        source_ids = np.searchsorted(node_asns, sources)
        target_ids = np.searchsorted(node_asns, targets)
        phases = []
        for phase_rels in _PHASE_RELS:
            selected = np.flatnonzero(np.isin(rels, phase_rels))
            order = selected[np.lexsort((target_ids[selected],
                                         source_ids[selected]))]
            indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(source_ids[order], minlength=num_nodes),
                      out=indptr[1:])
            phases.append(PhaseEdges(
                indptr=indptr.tolist(),
                targets=target_ids[order].tolist(),
                rels=rels[order].tolist(),
                bags=edge_bags[order].tolist(),
                vias=vias[order].tolist()))
        return cls(Interner(node_asns.tolist()), bags, *phases,
                   num_edges=len(sources))

    # -- incremental maintenance ---------------------------------------------

    def spliced(self, removed: DirectedEdges, added: DirectedEdges,
                retagged: DirectedEdges = NO_EDGES) -> "CSRIndex":
        """A new index equal to a from-scratch build after an edge delta.

        *removed*/*added* are directed edge columns whose bag ids refer
        to this index's store (:func:`~repro.topology.as_graph.
        link_edges` interns into ``index.bags``); *retagged* edges keep
        their row but get their annotations (rel, bag, via) replaced —
        the policy-edit case, where a member's RS communities change on
        edges whose adjacency is untouched.  The phase arrays are copied
        and each change is applied at the sorted ``(source, target)``
        position a full build's stable sort would have produced, so
        the result is structurally identical to a from-scratch build of
        the post-change edges — that is what makes event-driven delta
        recompute bit-identical to a rebuild.

        The ASN interner is shared (node ids must not shift) and the bag
        store is shared and appended to (existing bag ids stay valid for
        the old index and any plan built over it).  Raises ``KeyError``
        when an endpoint is not interned or a removed/retagged edge is
        absent — callers fall back to a full rebuild, which also covers
        node-set changes this method must not attempt.
        """
        id_of = self.id_of
        changes: Tuple[list, list, list] = ([], [], [])
        delta = 0
        for sign, edges in ((-1, removed), (+1, added), (0, retagged)):
            for source, target, rel, bag, via in zip(*edges):
                record = (sign, id_of[source], id_of[target], rel, bag, via)
                delta += sign
                if rel == REL_CUSTOMER or rel == REL_SIBLING:
                    changes[0].append(record)
                if rel == REL_PEER or rel == REL_RS_PEER:
                    changes[1].append(record)
                if rel == REL_PROVIDER or rel == REL_SIBLING:
                    changes[2].append(record)
        phases = tuple(
            _splice_phase(phase, phase_changes) if phase_changes else phase
            for phase, phase_changes in zip(
                (self.customer_edges, self.peer_edges, self.provider_edges),
                changes))
        return CSRIndex(self.asns, self.bags, phases[0], phases[1],
                        phases[2], num_edges=self.num_edges + delta)

    # -- introspection -------------------------------------------------------


def _splice_phase(phase: PhaseEdges, changes: List[tuple]) -> PhaseEdges:
    """Apply ``(sign, source, target, rel, bag, via)`` changes to a copy
    of *phase*, keeping the per-source target ordering of a stable
    ``(source, target)`` sort (edges are unique per pair within a
    phase, so the position is exact)."""
    indptr = list(phase.indptr)
    targets = list(phase.targets)
    rels = list(phase.rels)
    bags = list(phase.bags)
    vias = list(phase.vias)
    num_nodes = len(indptr) - 1
    for sign, source, target, rel, bag, via in changes:
        lo, hi = indptr[source], indptr[source + 1]
        position = bisect_left(targets, target, lo, hi)
        present = position < hi and targets[position] == target
        if sign < 0:
            if not present:
                raise KeyError((source, target))
            del targets[position], rels[position], bags[position], \
                vias[position]
        elif sign > 0:
            if present:
                raise KeyError((source, target))
            targets.insert(position, target)
            rels.insert(position, rel)
            bags.insert(position, bag)
            vias.insert(position, via)
        else:  # retag in place: row position and ordering untouched
            if not present:
                raise KeyError((source, target))
            rels[position] = rel
            bags[position] = bag
            vias[position] = via
            continue
        for node in range(source + 1, num_nodes + 1):
            indptr[node] += sign
    return PhaseEdges(indptr=indptr, targets=targets, rels=rels,
                      bags=bags, vias=vias)


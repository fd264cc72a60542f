"""Array-based frontier BFS over the CSR index.

This is the per-origin kernel of the valley-free propagation engine
(the engine runs it for small batches, see
:data:`~repro.bgp.propagation.COMPILED_MIN_ORIGINS`).  Per-AS
state lives in parallel arrays indexed by node id — provenance class,
path length, learned-from node, path id, community-bag id — and the
three phases (customer climb, one-hop peering, provider descent) are
bucket-queue BFS sweeps over the pre-partitioned phase edges of the
:class:`~repro.runtime.csr.CSRIndex`.

Best-route semantics match the object-graph reference engine the test
suite keeps as an oracle (``tests/oracle/propagation.py``) exactly — provenance, path, communities, learned-from: within a phase
shorter paths win, across phases earlier phases win, ties break on the
lowest exporting neighbour (node ids ascend with ASNs, so comparing ids
*is* comparing ASNs), and the pop order replicates the reference heap.
The property tests in ``tests/bgp/test_propagation_equivalence.py``
exercise this.  One deliberate difference: the reference engine re-offers
a candidate to alternative-tracking observers every time its exporter is
re-popped with unchanged state, so its Adj-RIB-In lists can contain
duplicates; the ``exported`` guard here suppresses those exact-duplicate
re-exports, so an observer's offered routes are the same *set* of
candidates with different multiplicities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Sequence, Tuple

from repro.runtime.stores import CommunityBagStore, PathStore

if TYPE_CHECKING:  # avoid a runtime cycle: csr imports the REL codes below
    from repro.runtime.csr import CSRIndex, PhaseEdges

#: Compact relationship codes used in the CSR edge arrays (defined here,
#: at the leaf of the import graph; :mod:`repro.runtime.csr` re-exports
#: them alongside the Relationship mapping).
REL_CUSTOMER = 0
REL_PROVIDER = 1
REL_PEER = 2
REL_RS_PEER = 3
REL_SIBLING = 4

#: Provenance classes, in decreasing preference (canonical values; the
#: bgp layer re-exports them).
CLASS_ORIGIN = 0
CLASS_CUSTOMER = 1
CLASS_PEER = 2
CLASS_PROVIDER = 3

#: Provenance sentinel for "no route".
UNSET = 127

#: An offered candidate: (target node, class, path length, exporter
#: node, path id, bag id).  Recorded only for alternative-tracking
#: observers.
Offer = Tuple[int, int, int, int, int, int]


class OriginState:
    """The per-origin propagation outcome, still in interned form.

    Valid only until the next :meth:`FrontierPropagator.run` call — the
    arrays and the path store are reused across origins.  Callers must
    materialise what they record before propagating the next origin.
    """

    __slots__ = ("cls", "length", "frm", "pid", "bag", "touched", "offers")

    def __init__(self, cls: List[int], length: List[int], frm: List[int],
                 pid: List[int], bag: List[int], touched: List[int],
                 offers: List[Offer]) -> None:
        self.cls = cls          #: provenance class per node (UNSET = no route)
        self.length = length    #: AS-path length per node
        self.frm = frm          #: learned-from node id per node (-1 = none)
        self.pid = pid          #: path id per node (PathStore)
        self.bag = bag          #: community-bag id per node
        self.touched = touched  #: node ids holding a route, discovery order
        self.offers = offers    #: candidates offered to alt-recorded nodes


class FrontierPropagator:
    """Run the three-phase valley-free computation for one origin at a
    time, reusing scratch arrays across origins."""

    def __init__(self, index: CSRIndex, paths: PathStore,
                 bags: CommunityBagStore) -> None:
        self._index = index
        self._paths = paths
        self._bags = bags
        n = index.num_nodes
        self._cls = [UNSET] * n
        self._len = [0] * n
        self._frm = [-1] * n
        self._pid = [-1] * n
        self._bag = [0] * n
        self._touched: List[int] = []

    def run(self, origin_node: int, origin_bag: int,
            alt_nodes: FrozenSet[int] = frozenset()) -> OriginState:
        """Propagate one origin; see :class:`OriginState` for lifetime."""
        cls_, len_, frm, pid, bag = (
            self._cls, self._len, self._frm, self._pid, self._bag)
        for node in self._touched:
            cls_[node] = UNSET
            len_[node] = 0
            frm[node] = -1
            pid[node] = -1
            bag[node] = 0
        self._paths.clear()

        touched = [origin_node]
        self._touched = touched
        offers: List[Offer] = []

        cls_[origin_node] = CLASS_ORIGIN
        len_[origin_node] = 1
        pid[origin_node] = self._paths.cons(
            self._index.node_asns[origin_node])
        bag[origin_node] = origin_bag

        index = self._index
        # Phase 1: customer routes climb provider chains (and siblings).
        self._bfs(index.customer_edges, CLASS_CUSTOMER, CLASS_CUSTOMER,
                  [origin_node], alt_nodes, offers, touched)
        # Phase 2: one hop across peering links.
        self._peer_hop(index.peer_edges, alt_nodes, offers, touched)
        # Phase 3: everything descends provider->customer chains.
        self._bfs(index.provider_edges, CLASS_PROVIDER, CLASS_PROVIDER,
                  list(touched), alt_nodes, offers, touched)

        return OriginState(cls_, len_, frm, pid, bag, touched, offers)

    # -- phases --------------------------------------------------------------

    def _bfs(self, edges: PhaseEdges, base_class: int, export_limit: int,
             seeds: Sequence[int], alt_nodes: FrozenSet[int],
             offers: List[Offer], touched: List[int]) -> None:
        """Bucket-queue label correction along one phase's edges.

        The pop order replicates the reference engine's heap exactly:
        entries ordered by (path length at push time, node id), node ids
        ascending with ASNs.  Candidates generated while draining bucket
        ``L`` always land in a bucket ``> L`` (every hop adds at least
        one AS), so each bucket is complete — and can be sorted — before
        it drains.  A popped node exports its *current* state (which may
        be newer than the pushed one, e.g. a peer route inherited over a
        sibling link replacing a shorter provider route); the
        ``exported`` guard drops exact-duplicate re-exports.
        """
        indptr, targets, rels, ebags, evias = edges
        cls_, len_, frm, pid, bag = (
            self._cls, self._len, self._frm, self._pid, self._bag)
        node_asns = self._index.node_asns
        cons = self._paths.cons
        union = self._bags.union
        check_alt = bool(alt_nodes)

        buckets: List[List[int]] = []
        for node in seeds:
            length = len_[node]
            while length >= len(buckets):
                buckets.append([])
            buckets[length].append(node)

        exported = {}
        level = 0
        while level < len(buckets):
            queue = buckets[level]
            queue.sort()
            for u in queue:
                ucls = cls_[u]
                if ucls > export_limit:
                    continue
                ulen = len_[u]
                key = (ucls, ulen, frm[u])
                if exported.get(u) == key:
                    continue
                exported[u] = key
                start = indptr[u]
                end = indptr[u + 1]
                if start == end:
                    continue
                upid = pid[u]
                ubag = bag[u]
                for edge in range(start, end):
                    v = targets[edge]
                    ccls = ucls if rels[edge] == REL_SIBLING else base_class
                    via = evias[edge]
                    clen = ulen + 2 if via >= 0 else ulen + 1
                    vcls = cls_[v]
                    if ccls < vcls:
                        better = True
                    elif ccls > vcls:
                        better = False
                    else:
                        vlen = len_[v]
                        better = clen < vlen or (clen == vlen and u < frm[v])
                    offer = check_alt and v in alt_nodes
                    if not better and not offer:
                        continue
                    path = cons(via, upid) if via >= 0 else upid
                    path = cons(node_asns[v], path)
                    ebag = ebags[edge]
                    nbag = ubag if ebag == 0 else union(ubag, ebag)
                    if offer:
                        offers.append((v, ccls, clen, u, path, nbag))
                    if better:
                        if vcls == UNSET:
                            touched.append(v)
                        cls_[v] = ccls
                        len_[v] = clen
                        frm[v] = u
                        pid[v] = path
                        bag[v] = nbag
                        while clen >= len(buckets):
                            buckets.append([])
                        buckets[clen].append(v)
            buckets[level] = []
            level += 1

    def _peer_hop(self, edges: PhaseEdges, alt_nodes: FrozenSet[int],
                  offers: List[Offer], touched: List[int]) -> None:
        """Simultaneous single-hop peer exchange (phase 2).

        Updates are staged and applied after the sweep so every peer
        offers its *pre-phase* route, exactly like the reference engine.
        """
        indptr, targets, _rels, ebags, evias = edges
        cls_, len_, frm, pid, bag = (
            self._cls, self._len, self._frm, self._pid, self._bag)
        node_asns = self._index.node_asns
        cons = self._paths.cons
        union = self._bags.union
        check_alt = bool(alt_nodes)

        updates = {}
        for u in sorted(node for node in touched
                        if cls_[node] <= CLASS_CUSTOMER):
            start = indptr[u]
            end = indptr[u + 1]
            if start == end:
                continue
            ulen = len_[u]
            upid = pid[u]
            ubag = bag[u]
            for edge in range(start, end):
                v = targets[edge]
                via = evias[edge]
                clen = ulen + 2 if via >= 0 else ulen + 1
                pending = updates.get(v)
                if pending is None:
                    vcls = cls_[v]
                    better = CLASS_PEER < vcls or (
                        CLASS_PEER == vcls and (
                            clen < len_[v]
                            or (clen == len_[v] and u < frm[v])))
                else:
                    better = clen < pending[1] or (
                        clen == pending[1] and u < pending[2])
                offer = check_alt and v in alt_nodes
                if not better and not offer:
                    continue
                path = cons(via, upid) if via >= 0 else upid
                path = cons(node_asns[v], path)
                ebag = ebags[edge]
                nbag = ubag if ebag == 0 else union(ubag, ebag)
                if offer:
                    offers.append((v, CLASS_PEER, clen, u, path, nbag))
                if better:
                    updates[v] = (CLASS_PEER, clen, u, path, nbag)

        for v, (ccls, clen, u, path, nbag) in updates.items():
            vcls = cls_[v]
            if ccls < vcls or (ccls == vcls and (
                    clen < len_[v] or (clen == len_[v] and u < frm[v]))):
                if vcls == UNSET:
                    touched.append(v)
                cls_[v] = ccls
                len_[v] = clen
                frm[v] = u
                pid[v] = path
                bag[v] = nbag

"""Valley-free BGP route propagation engine.

The engine answers the question every measurement substrate needs
answered: *given a policy-annotated AS-level topology, which AS paths
(and which transitive BGP communities) does each AS end up with for each
origin?*  Route collectors, looking glasses and the traceroute
synthesiser all read their views out of a :class:`PropagationResult`.

The algorithm is the standard three-phase breadth-first computation used
in BGP simulation studies:

1. **customer routes** — the origin's announcement climbs customer->provider
   links; every AS on the way learns the route from a customer;
2. **peer routes** — every AS holding a customer (or own) route offers it
   across its peering links (bilateral and route-server) exactly one hop;
3. **provider routes** — every AS holding any route propagates it down
   provider->customer links recursively.

Within a phase, shorter AS paths win; across phases, earlier phases win
(customer > peer > provider), reproducing the default LOCAL_PREF policy.
Ties break on the lowest neighbour ASN, which makes propagation fully
deterministic.

The computation itself runs on the :mod:`repro.runtime` substrate: a
CSR adjacency index built once per topology, per-AS best-route state in
integer arrays, and paths/community bags interned in shared stores.
Two kernels compute the same routes bit for bit, and the engine picks
one per :meth:`PropagationEngine.batch_fragments` call from the number
of origins it propagates: below :data:`COMPILED_MIN_ORIGINS` the per-origin
frontier BFS (:class:`~repro.runtime.frontier.FrontierPropagator`),
which has no per-batch set-up cost; at or above it the fused
multi-origin kernel (:class:`~repro.runtime.compiled.
CompiledPropagator`), which amortises its per-round cost over the
batch.

Recorded routes stay columnar: :class:`PropagationResult` is one
store of per-origin (best, offered) :class:`RouteBlock` pairs, and
every reader answers from one :class:`~repro.runtime.fragments.
ObservationIndex` over them.  Route objects exist only as the blocks'
cached row views, built for the object-level readers.  The test suite
keeps the original object-graph engine and its dict-fold result as the
oracle and checks both kernels and every reader against them.

Route-server peering is modelled by the index's RS-peer edges, each
carrying the community bag of the RS communities the exporting member
attached (:func:`~repro.topology.as_graph.link_edges`), so the
communities show up — transitively — in collector feeds exactly as the
paper describes in section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.runtime.compiled import CompiledPropagator, compiled_batch_size
from repro.runtime.fragments import (
    ObservationIndex,
    ObserverView,
    OriginPrefixes,
    PathTable,
    RouteBlock,
    blocks_from_columns,
    distinct_links,
    ragged_gather,
)
from repro.runtime.frontier import (
    CLASS_CUSTOMER,
    CLASS_ORIGIN,
    CLASS_PEER,
    CLASS_PROVIDER,
    OriginState,
)

__all__ = [
    "CLASS_CUSTOMER",
    "CLASS_ORIGIN",
    "CLASS_PEER",
    "CLASS_PROVIDER",
    "COMPILED_MIN_ORIGINS",
    "OriginSpec",
    "PropagatedRoute",
    "PropagationEngine",
    "PropagationResult",
    "RouteBlock",
]

#: Kernel selection threshold: a ``batch_fragments`` call with at least
#: this many connected origins runs the fused multi-origin kernel, a
#: smaller one runs the frontier BFS per origin.  Measured crossover
#: (ARCHITECTURE.md, "Kernel selection"): the compiled kernel is 2-3x
#: slower on one origin (its per-batch set-up dominates), breaks even
#: at 4-6 origins with the plan compiled and at 6-10 when the batch
#: also pays the plan's compilation (every index-touching replay
#: event does), and is 2.5-3x faster on full sweeps.
COMPILED_MIN_ORIGINS = 8


class PropagatedRoute:
    """The route an AS ends up holding for one origin."""

    __slots__ = ("asn", "path", "communities", "provenance", "learned_from")

    def __init__(
        self,
        asn: int,
        path: Tuple[int, ...],
        communities: FrozenSet[Community],
        provenance: int,
        learned_from: Optional[int],
    ) -> None:
        self.asn = asn
        #: AS path as the AS would announce it: [self, ..., origin].
        self.path = path
        self.communities = communities
        #: one of CLASS_ORIGIN / CLASS_CUSTOMER / CLASS_PEER / CLASS_PROVIDER
        self.provenance = provenance
        self.learned_from = learned_from


@dataclass
class OriginSpec:
    """An origin AS together with the prefixes it announces."""

    asn: int
    prefixes: Sequence[Prefix] = field(default_factory=list)
    #: Communities attached by the origin itself to all its announcements.
    communities: FrozenSet[Community] = frozenset()


class PropagationResult:
    """Routes recorded at the requested observation ASes.

    One columnar store: each origin is recorded once, as the (best,
    offered) :class:`~repro.runtime.fragments.RouteBlock` pair the
    engine produced, and every reader answers from one
    :class:`~repro.runtime.fragments.ObservationIndex` over those
    blocks (built on the first read after a recording).  Best routes
    are keyed by ``(observer_asn, origin_asn)``; observers registered
    with ``record_alternatives`` also hold every candidate route
    offered to them (their Adj-RIB-In).  Route objects exist only as
    the blocks' cached row views, built by the object-level readers;
    bulk consumers (``visible_links``, the collectors, the looking
    glasses, the inference planes) read the columns.
    """

    def __init__(self) -> None:
        #: (spec, best, offered) per origin, in recording order.
        self._records: List[Tuple[OriginSpec, RouteBlock, RouteBlock]] = []
        #: origin ASN -> position in ``_records``.
        self._position: Dict[int, int] = {}
        #: the per-(observer, origin) index over ``_records`` and the
        #: origins' prefix column; None until the first read after a
        #: recording.
        self._index: Optional[ObservationIndex] = None
        self._prefixes: Optional[OriginPrefixes] = None

    # -- population (used by the engine) ------------------------------------

    def _record(self, spec: OriginSpec, best: RouteBlock,
                offered: RouteBlock) -> None:
        """Record one origin's (best, offered) blocks.

        Raises ``TypeError`` for a fragment that is not a
        :class:`RouteBlock` and ``ValueError`` for an origin that is
        already recorded.
        """
        if not (isinstance(best, RouteBlock)
                and isinstance(offered, RouteBlock)):
            raise TypeError("fragments must be RouteBlocks")
        if spec.asn in self._position:
            raise ValueError(f"origin {spec.asn} is already recorded")
        self._position[spec.asn] = len(self._records)
        self._records.append((spec, best, offered))
        self._index = None
        self._prefixes = None

    def observation_index(self) -> ObservationIndex:
        """The :class:`~repro.runtime.fragments.ObservationIndex` over
        the recorded blocks (built on the first read)."""
        if self._index is None:
            self._index = ObservationIndex(
                [best for _spec, best, _offered in self._records],
                [offered for _spec, _best, offered in self._records])
        return self._index

    def origin_prefixes(self) -> OriginPrefixes:
        """The recorded origins' prefixes as one value-interned column,
        indexed by origin position (built on the first read)."""
        if self._prefixes is None:
            self._prefixes = OriginPrefixes(
                [spec.prefixes for spec, _best, _offered in self._records])
        return self._prefixes

    # -- read API ------------------------------------------------------------

    def origins(self) -> List[int]:
        """All origin ASNs that were propagated, in recording order."""
        return list(self._position)

    def recorded_fragments(self) -> Dict[int, Tuple[RouteBlock, RouteBlock]]:
        """Origin -> (best, offered) blocks exactly as recorded.

        This is the delta-propagation baseline: when an event timeline
        patches a result, unaffected origins' blocks are taken from
        here unchanged (block identity preserved) and only affected
        origins are recomputed.
        """
        return {spec.asn: (best, offered)
                for spec, best, offered in self._records}

    def iter_best_columns_at(
            self, observer_asn: int) -> List[Tuple[int, RouteBlock, int]]:
        """The observer's best routes as ``(origin_asn, block, row)``
        triples in origin recording order, without materialising route
        objects."""
        records = self._records
        return [(records[pos][0].asn, records[pos][1], row)
                for pos, row in self.observation_index().best_refs(
                    observer_asn)]

    def iter_routes_at(
            self, observer_asn: int) -> List[Tuple[int, PropagatedRoute]]:
        """``(origin ASN, best route)`` pairs at *observer_asn*, in
        origin recording order."""
        return [(origin, block.route(row)) for origin, block, row
                in self.iter_best_columns_at(observer_asn)]

    def routes_at(self, observer_asn: int) -> Dict[int, PropagatedRoute]:
        """Mapping origin ASN -> best route at *observer_asn*."""
        return dict(self.iter_routes_at(observer_asn))

    def observer_view(self, observer_asn: int) -> ObserverView:
        """The observer's full view — per origin, its offered routes in
        ``all_paths`` order where any were recorded, else its best
        route — as one :class:`~repro.runtime.fragments.ObserverView`
        of index arrays (no route objects)."""
        return ObserverView(self.observation_index(),
                            self.origin_prefixes(), observer_asn)

    def visible_links(self, observer_asns: Optional[Iterable[int]] = None
                      ) -> Set[Tuple[int, int]]:
        """AS links appearing in the best paths of the given observers
        (all recorded observers by default), paired and deduplicated
        over the index's best-side path cells
        (:func:`~repro.runtime.fragments.distinct_links`)."""
        index = self.observation_index()
        columns = index.best_columns()
        if observer_asns is None:
            return distinct_links(columns.path_offsets, columns.path_values)
        rows = [index.best_rows(observer)[1] for observer in observer_asns]
        if not rows:
            return set()
        return distinct_links(*ragged_gather(
            columns.path_offsets, columns.path_values, np.concatenate(rows)))

    def __getstate__(self):
        # The observation index and the prefix column are cheap to
        # rebuild and would otherwise bloat persisted/shipped artifacts
        # (the pickled state keeps its layout: ``_index`` is None).
        state = self.__dict__.copy()
        state["_index"] = None
        del state["_prefixes"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._prefixes = None


class PropagationEngine:
    """Propagate origins over a context's CSR index.

    Parameters
    ----------
    context:
        The :class:`~repro.runtime.context.PipelineContext` whose CSR
        index, path/bag stores and compiled plan the engine shares with
        every other engine created from it
        (:meth:`~repro.runtime.context.PipelineContext.engine`).
    record_at:
        ASes whose resulting routes should be kept in the result.  If
        None, every AS is recorded (only advisable for small topologies).
    record_alternatives_at:
        Subset of observers for which all offered candidate routes (the
        Adj-RIB-In) are retained, not just the best one.
    """

    def __init__(
        self,
        context,
        record_at: Optional[Iterable[int]] = None,
        record_alternatives_at: Optional[Iterable[int]] = None,
    ) -> None:
        self._ctx = context
        self._index = context.index
        self._bags = context.bags
        self._paths = context.paths
        self._compiled = None
        self._record_mask = None
        self._asn_array = None
        self._record_at = set(record_at) if record_at is not None else None
        self._record_alt_at = set(record_alternatives_at or ())
        id_of = self._index.id_of
        self._alt_nodes = frozenset(
            id_of[asn] for asn in self._record_alt_at if asn in id_of)

    # -- public API ----------------------------------------------------------

    def propagate(self, origins: Iterable[OriginSpec]) -> PropagationResult:
        """Propagate every origin and return the recorded routes."""
        origins = list(origins)
        result = PropagationResult()
        for spec, (best, offered) in zip(origins,
                                         self.batch_fragments(origins)):
            result._record(spec, best, offered)
        return result

    # -- internals -----------------------------------------------------------

    def batch_fragments(
        self, specs: Sequence[OriginSpec]
    ) -> List[Tuple[RouteBlock, RouteBlock]]:
        """The recorded (best, offered) fragments for a batch of origins.

        Each fragment is a :class:`~repro.runtime.fragments.RouteBlock`
        — columnar, cheap to pickle (a handful of arrays instead of
        thousands of route tuples) and iterable as lazy
        ``PropagatedRoute`` views.  Every origin of the batch is
        propagated: the origins are run together by one kernel, picked
        by their count (:data:`COMPILED_MIN_ORIGINS`).
        """
        specs = list(specs)
        results: List[Optional[Tuple]] = [None] * len(specs)
        recordable = self._record_at
        positions: List[int] = []
        origin_nodes: List[int] = []
        origin_bags: List[int] = []
        for position, spec in enumerate(specs):
            origin = spec.asn
            origin_bag = self._bags.intern(frozenset(spec.communities)) \
                if spec.communities else self._bags.EMPTY
            origin_node = self._index.id_of.get(origin)
            if origin_node is None:
                # Origin is isolated; it still holds its own route.
                results[position] = _isolated_origin_blocks(
                    origin, self._bags.value(origin_bag),
                    recordable is None or origin in recordable)
                continue
            positions.append(position)
            origin_nodes.append(origin_node)
            origin_bags.append(origin_bag)

        if positions:
            for position, fragments in zip(positions, self._compute_fragments(
                    origin_nodes, origin_bags)):
                results[position] = fragments
        return results

    def _compute_fragments(self, origin_nodes, origin_bags) -> List[Tuple]:
        """Propagate the connected origins (parallel node/bag lists;
        isolated origins already filtered out).

        Kernel selection: :data:`COMPILED_MIN_ORIGINS` or more origins
        run through the fused multi-origin kernel in memory-bounded
        batches; fewer run the frontier BFS one origin at a time.
        """
        mask = self._record_node_mask()
        if len(origin_nodes) < COMPILED_MIN_ORIGINS:
            propagator = self._ctx.propagator
            return [self._frontier_block(
                        propagator.run(node, bag, self._alt_nodes), mask)
                    for node, bag in zip(origin_nodes, origin_bags)]
        propagator = self._compiled_propagator()
        # Wider batches amortise per-level round cost; the helper caps
        # the (origins x nodes) planes by memory.
        batch_size = compiled_batch_size(self._ctx.plan)
        fragments: List[Tuple] = []
        for start in range(0, len(origin_nodes), batch_size):
            batch = propagator.run_batch(
                origin_nodes[start:start + batch_size],
                origin_bags[start:start + batch_size],
                self._alt_nodes)
            fragments.extend(self._batch_blocks(batch, mask))
        return fragments

    def _node_asn_array(self):
        """Node id -> ASN as an int64 array (built once per engine)."""
        if self._asn_array is None:
            self._asn_array = np.asarray(self._index.node_asns,
                                         dtype=np.int64)
        return self._asn_array

    def _batch_blocks(self, batch, mask) -> List[Tuple]:
        """All (best, offered) :class:`RouteBlock`s of one compiled
        batch, from two :func:`blocks_from_columns` runs (best rows,
        then offers) over one chain walk (:class:`PathTable`).

        Recorded-observer filtering is the boolean *mask* applied once
        to the batch's flat (row, node) pairs, before one gather reads
        the flat planes.
        """
        node_asns = self._node_asn_array()
        rows, nodes = batch.touched_columns()
        o_rows, o_to, o_cls, _o_len, o_frm, o_pid, o_bag = \
            batch.offer_columns()
        if mask is not None:
            keep = mask[nodes]
            rows, nodes = rows[keep], nodes[keep]
            keep = mask[o_to]
            o_rows, o_to, o_cls, o_frm, o_pid, o_bag = (
                o_rows[keep], o_to[keep], o_cls[keep], o_frm[keep],
                o_pid[keep], o_bag[keep])
        flat = rows * batch.cls.shape[1] + nodes
        frm = batch.frm.ravel()[flat]
        pid = batch.pid.ravel()[flat]
        heads, parents = batch.paths.columns()
        table = PathTable(heads, parents, np.concatenate((pid, o_pid)))
        count = batch.num_origins
        best = blocks_from_columns(
            np.bincount(rows, minlength=count), node_asns[nodes],
            batch.cls.ravel()[flat],
            np.where(frm >= 0, node_asns[np.maximum(frm, 0)], -1), pid,
            batch.bag.ravel()[flat], self._bags.value, table)
        offered = blocks_from_columns(
            np.bincount(o_rows, minlength=count), node_asns[o_to], o_cls,
            node_asns[o_frm], o_pid, o_bag, self._bags.value, table)
        return list(zip(best, offered))

    def _frontier_block(self, state: OriginState, mask) -> Tuple:
        """One frontier origin's state as (best, offered) RouteBlocks:
        one :func:`blocks_from_columns` run of two blocks.

        The frontier propagator keeps full per-node python lists; they
        convert to arrays once per origin (C-speed), with the
        per-origin path store walked once.
        """
        node_asns = self._node_asn_array()
        nodes = np.asarray(state.touched, dtype=np.int64)
        offers = np.asarray(state.offers, dtype=np.int64).reshape(-1, 6)
        if mask is not None:
            nodes = nodes[mask[nodes]]
            offers = offers[mask[offers[:, 0]]]

        def rows(plane, offer_column):
            """The best rows' values in per-node *plane*, then the
            offers' *offer_column*."""
            return np.concatenate((np.asarray(plane, dtype=np.int64)[nodes],
                                   offers[:, offer_column]))

        frm = rows(state.frm, 3)
        pids = rows(state.pid, 4)
        heads, parents = self._paths.columns()
        best, offered = blocks_from_columns(
            (len(nodes), len(offers)),
            node_asns[np.concatenate((nodes, offers[:, 0]))],
            rows(state.cls, 1),
            np.where(frm >= 0, node_asns[np.maximum(frm, 0)], -1), pids,
            rows(state.bag, 5), self._bags.value,
            PathTable(heads, parents, pids))
        return best, offered

    def _compiled_propagator(self):
        if self._compiled is None:
            self._compiled = CompiledPropagator(self._ctx.plan, self._bags)
        return self._compiled

    def _record_node_mask(self):
        """Boolean node mask of the recorded observers (None = all)."""
        if self._record_at is None:
            return None
        if self._record_mask is None:
            mask = np.zeros(self._index.num_nodes, dtype=bool)
            id_of = self._index.id_of
            for asn in self._record_at:
                node = id_of.get(asn)
                if node is not None:
                    mask[node] = True
            self._record_mask = mask
        return self._record_mask


def _isolated_origin_blocks(origin: int, communities: frozenset,
                            recorded: bool) -> Tuple[RouteBlock, RouteBlock]:
    """The (best, offered) blocks of an origin without links: its own
    route when *recorded*, and no offers."""
    def block(rows: int, bag_values) -> RouteBlock:
        return RouteBlock(
            asn=np.full(rows, origin, dtype=np.int64),
            provenance=np.full(rows, CLASS_ORIGIN, dtype=np.int16),
            learned_from=np.full(rows, -1, dtype=np.int64),
            bag_id=np.zeros(rows, dtype=np.int32),
            pid=np.full(rows, -1, dtype=np.int64),
            path_offsets=np.arange(rows + 1, dtype=np.int64),
            path_values=np.full(rows, origin, dtype=np.int64),
            bag_values=bag_values)
    own = int(recorded)
    return block(own, (communities,) * own), block(0, ())

"""The original object-graph propagation engine, kept as the oracle.

This is the seed implementation of the three-phase valley-free
computation, materialising a :class:`PropagatedRoute` (tuple path +
frozenset communities) for every candidate.  It is quadratic in memory
at scale and production runs the array kernels of
:mod:`repro.bgp.propagation` instead; it is retained verbatim so the
differential tests can check both production kernels against it on
randomized topologies, and as executable documentation of the
algorithm.

Its results are :class:`ObjectResult` objects: the seed's dict-fold result,
every recorded route folded eagerly into per-observer dicts in
recording order.  Production's columnar
:class:`~repro.bgp.propagation.PropagationResult` must answer every
reader exactly like it (:func:`object_result` builds one from the
frontier kernel's state, route by route).

The topology is written as :class:`Adjacency` records, directed
route-flow edges (production builds its index from the graph's links
instead).  :func:`adjacencies_from_index` turns any production
context's CSR index back into such records, so the oracle can be built
over exactly the topology a pipeline run propagated
(:meth:`ReferencePropagationEngine.from_context`), and
:func:`context_from_adjacencies` is its forward direction: a production
:class:`~repro.runtime.context.PipelineContext` over hand-written
adjacency records (:func:`bidirectional_adjacencies` writes the two
records of an ordinary link).  :func:`best_route`, :func:`all_paths`
and :func:`result_observers` read one route at a time from any result:
an :class:`ObjectResult` from its dicts, a production result by
scanning the blocks it recorded.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
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

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.propagation import (
    CLASS_CUSTOMER,
    CLASS_ORIGIN,
    CLASS_PEER,
    CLASS_PROVIDER,
    OriginSpec,
    PropagatedRoute,
)
from repro.runtime.context import PipelineContext
from repro.runtime.csr import REL_CODE, CSRIndex, DirectedEdges
from repro.runtime.frontier import (
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    REL_RS_PEER,
    REL_SIBLING,
)
from repro.runtime.stores import CommunityBagStore

_REL_OF_CODE = {
    REL_CUSTOMER: Relationship.CUSTOMER,
    REL_PROVIDER: Relationship.PROVIDER,
    REL_PEER: Relationship.PEER,
    REL_RS_PEER: Relationship.RS_PEER,
    REL_SIBLING: Relationship.SIBLING,
}


@dataclass(frozen=True)
class Adjacency:
    """A directed route-flow edge: *target* can learn routes from *source*.

    ``relationship`` is the relationship of *source* as seen by *target*
    (the importing AS): a route flowing customer->provider is represented
    with ``relationship=Relationship.CUSTOMER`` because the provider
    (target) learned it from a customer.

    ``communities`` are attached to any route crossing the edge — this is
    how RS members' export-policy communities become visible downstream.
    If ``rs_transparent`` is False, ``via_rs_asn`` is inserted into the AS
    path (the 'route server does not strip its ASN' artefact).
    """

    source: int
    target: int
    relationship: Relationship
    communities: FrozenSet[Community] = frozenset()
    via_rs_asn: Optional[int] = None
    rs_transparent: bool = True
    ixp: Optional[str] = None


def materialize(store, pid: int) -> Tuple[int, ...]:
    """The tuple form of path *pid* of a path store (``()`` for a
    negative id), walked cell by cell through its ``(heads, parents)``
    columns."""
    heads, parents = store.columns()
    path = []
    pid = int(pid)
    while pid >= 0:
        path.append(int(heads[pid]))
        pid = int(parents[pid])
    return tuple(path)


def object_fragments(context, specs: Iterable[OriginSpec],
                     record_at: Optional[Iterable[int]] = None,
                     record_alternatives_at: Optional[Iterable[int]] = None,
                     ) -> List[Tuple[List[PropagatedRoute],
                                     List[PropagatedRoute]]]:
    """Per-origin (best, offered) routes as eager object lists: the
    frontier kernel's state materialised route by route through the
    scalar :func:`materialize` — the
    pre-columnar recording path the :class:`~repro.runtime.fragments.
    RouteBlock` plane must reproduce exactly (content and order)."""
    index = context.index
    bags = context.bags
    propagator = context.propagator
    node_asns = index.node_asns
    recordable = set(record_at) if record_at is not None else None
    alt_nodes = frozenset(index.id_of[asn]
                          for asn in (record_alternatives_at or ())
                          if asn in index.id_of)
    fragments = []
    for spec in specs:
        origin_bag = bags.intern(frozenset(spec.communities)) \
            if spec.communities else bags.EMPTY
        node = index.id_of.get(spec.asn)
        if node is None:
            own = [] if recordable is not None and spec.asn not in recordable \
                else [PropagatedRoute(spec.asn, (spec.asn,),
                                      bags.value(origin_bag), CLASS_ORIGIN,
                                      None)]
            fragments.append((own, []))
            continue
        state = propagator.run(node, origin_bag, alt_nodes)
        paths = context.paths
        best = []
        for touched in state.touched:
            asn = node_asns[touched]
            if recordable is not None and asn not in recordable:
                continue
            learned = state.frm[touched]
            best.append(PropagatedRoute(
                asn, materialize(paths, state.pid[touched]),
                bags.value(state.bag[touched]), int(state.cls[touched]),
                node_asns[learned] if learned >= 0 else None))
        offered = []
        for target, ccls, _clen, exporter, path_id, bag_id in state.offers:
            asn = node_asns[target]
            if recordable is not None and asn not in recordable:
                continue
            offered.append(PropagatedRoute(
                asn, materialize(paths, path_id), bags.value(bag_id), ccls,
                node_asns[exporter]))
        fragments.append((best, offered))
    return fragments


class ObjectResult:
    """The dict-fold propagation result (the seed's result API).

    Every recorded route is folded, in recording order, into
    ``observer -> {origin: best route}`` and ``observer -> {origin:
    [offered routes]}`` dicts, so every reader's iteration order is the
    dicts' insertion order.
    """

    def __init__(self) -> None:
        self._origins: Dict[int, OriginSpec] = {}
        self._fragments: Dict[int, Tuple[List[PropagatedRoute],
                                         List[PropagatedRoute]]] = {}
        self._best: Dict[int, Dict[int, PropagatedRoute]] = {}
        self._alternatives: Dict[int, Dict[int, List[PropagatedRoute]]] = {}

    def record(self, spec: OriginSpec, best: Sequence[PropagatedRoute],
               offered: Sequence[PropagatedRoute]) -> None:
        """Fold one origin's (best, offered) routes into the dicts."""
        origin = spec.asn
        self._origins[origin] = spec
        self._fragments[origin] = (list(best), list(offered))
        for route in best:
            self._best.setdefault(route.asn, {})[origin] = route
        for route in offered:
            self._alternatives.setdefault(route.asn, {}).setdefault(
                origin, []).append(route)

    def origins(self) -> List[int]:
        return list(self._origins)

    def origin_spec(self, origin_asn: int) -> OriginSpec:
        return self._origins[origin_asn]

    def recorded_fragments(self):
        return dict(self._fragments)

    def observers(self) -> List[int]:
        return list(self._best)

    def best_route(self, observer_asn: int,
                   origin_asn: int) -> Optional[PropagatedRoute]:
        return self._best.get(observer_asn, {}).get(origin_asn)

    def routes_at(self, observer_asn: int) -> Dict[int, PropagatedRoute]:
        return dict(self._best.get(observer_asn, {}))

    def iter_routes_at(self, observer_asn: int):
        return self._best.get(observer_asn, {}).items()

    def all_paths(self, observer_asn: int,
                  origin_asn: int) -> List[PropagatedRoute]:
        alternatives = self._alternatives.get(observer_asn, {}).get(
            origin_asn)
        if alternatives:
            return sorted(alternatives, key=all_paths_key)
        best = self.best_route(observer_asn, origin_asn)
        return [best] if best is not None else []

    def visible_links(self, observer_asns: Optional[Iterable[int]] = None
                      ) -> Set[Tuple[int, int]]:
        observers = list(observer_asns) if observer_asns is not None \
            else self.observers()
        links: Set[Tuple[int, int]] = set()
        for observer in observers:
            for route in self._best.get(observer, {}).values():
                path = route.path
                for left, right in zip(path, path[1:]):
                    if left != right:
                        links.add((min(left, right), max(left, right)))
        return links


def object_result(context, specs: Iterable[OriginSpec],
                  record_at: Optional[Iterable[int]] = None,
                  record_alternatives_at: Optional[Iterable[int]] = None,
                  ) -> ObjectResult:
    """:func:`object_fragments` folded into an :class:`ObjectResult`."""
    specs = list(specs)
    result = ObjectResult()
    for spec, (best, offered) in zip(specs, object_fragments(
            context, specs, record_at, record_alternatives_at)):
        result.record(spec, best, offered)
    return result


def inverse_relationship(relationship: Relationship) -> Relationship:
    """The relationship as seen from the other side of the link."""
    if relationship is Relationship.CUSTOMER:
        return Relationship.PROVIDER
    if relationship is Relationship.PROVIDER:
        return Relationship.CUSTOMER
    return relationship


def bidirectional_adjacencies(
    asn_a: int,
    asn_b: int,
    relationship_of_b_seen_from_a: Relationship,
) -> List[Adjacency]:
    """The two directed adjacencies of an ordinary AS link.

    ``relationship_of_b_seen_from_a`` follows the :class:`Relationship`
    convention: ``CUSTOMER`` means *b* is *a*'s customer.
    """
    rel_ab = relationship_of_b_seen_from_a
    # Route flow a->b: b learns from a, so b sees a as the inverse.
    return [
        Adjacency(source=asn_a, target=asn_b,
                  relationship=inverse_relationship(rel_ab)),
        Adjacency(source=asn_b, target=asn_a, relationship=rel_ab),
    ]


def index_from_adjacencies(adjacencies: Iterable[Adjacency],
                           bags: Optional[CommunityBagStore] = None,
                           ) -> CSRIndex:
    """A CSR index over directed adjacency records: their bags interned
    in record order, then :meth:`CSRIndex.from_edges` assembles."""
    bags = bags if bags is not None else CommunityBagStore()
    edges = DirectedEdges([], [], [], [], [])
    for adj in adjacencies:
        edges.sources.append(adj.source)
        edges.targets.append(adj.target)
        edges.rels.append(REL_CODE[adj.relationship])
        communities = adj.communities
        edges.bags.append(
            bags.intern(frozenset(communities)) if communities else 0)
        via = adj.via_rs_asn
        edges.vias.append(
            via if (via is not None and not adj.rs_transparent) else -1)
    return CSRIndex.from_edges(edges, bags)


def context_from_adjacencies(adjacencies: Iterable[Adjacency],
                             ) -> PipelineContext:
    """A production context over directed adjacency records."""
    return PipelineContext(index_from_adjacencies(adjacencies))


def engine_from_adjacencies(adjacencies: Iterable[Adjacency],
                            record_at: Optional[Iterable[int]] = None,
                            record_alternatives_at: Optional[
                                Iterable[int]] = None):
    """A production engine on a private context over *adjacencies*."""
    return context_from_adjacencies(adjacencies).engine(
        record_at=record_at, record_alternatives_at=record_alternatives_at)


def origin_spec(result, origin_asn: int) -> OriginSpec:
    """The :class:`OriginSpec` *result* recorded for *origin_asn* (a
    production result keeps its specs only in its records)."""
    if isinstance(result, ObjectResult):
        return result.origin_spec(origin_asn)
    return result._records[result._position[origin_asn]][0]


def all_paths_key(route: PropagatedRoute) -> Tuple[int, int, int]:
    """The ``all_paths`` order of one observer's candidates for one
    origin (stable: ties keep recording order)."""
    return (route.provenance, len(route.path), route.learned_from or -1)


# A production result's readers below scan the blocks it recorded
# (``recorded_fragments``), never its ObservationIndex, so the index
# readers production uses (``routes_at``, ``observer_view``) are
# checked against an independent answer.


def result_observers(result) -> List[int]:
    """All ASes holding a best route, in first-recorded order."""
    if isinstance(result, ObjectResult):
        return result.observers()
    seen: Dict[int, None] = {}
    for best, _offered in result.recorded_fragments().values():
        seen.update(dict.fromkeys(best.asn.tolist()))
    return list(seen)


def best_route(result, observer_asn: int,
               origin_asn: int) -> Optional[PropagatedRoute]:
    """Best route held by *observer_asn* towards *origin_asn* (the last
    row when a hand-built block holds several)."""
    if isinstance(result, ObjectResult):
        return result.best_route(observer_asn, origin_asn)
    fragments = result.recorded_fragments().get(origin_asn)
    if fragments is None:
        return None
    best = fragments[0]
    rows = np.flatnonzero(best.asn == observer_asn)
    return best.route(int(rows[-1])) if len(rows) else None


def all_paths(result, observer_asn: int,
              origin_asn: int) -> List[PropagatedRoute]:
    """All candidate routes offered to *observer_asn* for *origin_asn*
    (best first); the best route alone where alternatives were not
    recorded for this observer."""
    if isinstance(result, ObjectResult):
        return result.all_paths(observer_asn, origin_asn)
    fragments = result.recorded_fragments().get(origin_asn)
    if fragments is None:
        return []
    offered = fragments[1]
    rows = np.flatnonzero(offered.asn == observer_asn).tolist()
    if rows:
        return sorted((offered.route(row) for row in rows),
                      key=all_paths_key)
    best = best_route(result, observer_asn, origin_asn)
    return [best] if best is not None else []


def adjacencies_from_index(index) -> List[Adjacency]:
    """Reconstruct directed :class:`Adjacency` records from a CSR index.

    The semantic inverse of :func:`index_from_adjacencies`.  Sibling edges
    appear in both the customer and provider phase blocks and are
    emitted once; a transparent route server is reconstructed as
    ``via_rs_asn=None``, which is indistinguishable in propagation
    semantics.
    """
    node_asns = index.node_asns
    bag_value = index.bags.value
    adjacencies: List[Adjacency] = []
    # Customer + peer phases cover every relationship except PROVIDER
    # (siblings are deduplicated out of the provider phase).
    for phase, skip_siblings in ((index.customer_edges, False),
                                 (index.peer_edges, False),
                                 (index.provider_edges, True)):
        indptr, targets, rels, bags, vias = phase
        for source in range(index.num_nodes):
            for edge in range(indptr[source], indptr[source + 1]):
                rel = rels[edge]
                if skip_siblings and rel == REL_SIBLING:
                    continue
                via = vias[edge]
                adjacencies.append(Adjacency(
                    source=node_asns[source],
                    target=node_asns[targets[edge]],
                    relationship=_REL_OF_CODE[rel],
                    communities=bag_value(bags[edge]),
                    via_rs_asn=via if via >= 0 else None,
                    rs_transparent=via < 0,
                ))
    return adjacencies


class ReferencePropagationEngine:
    """Propagate origins over a policy-annotated adjacency set.

    Same public API and identical routing semantics as
    :class:`~repro.bgp.propagation.PropagationEngine`; see that class
    for parameter documentation.
    """

    def __init__(
        self,
        adjacencies: Iterable[Adjacency],
        record_at: Optional[Iterable[int]] = None,
        record_alternatives_at: Optional[Iterable[int]] = None,
    ) -> None:
        self._out: Dict[int, List[Adjacency]] = {}
        self._nodes: Set[int] = set()
        for adj in adjacencies:
            self._out.setdefault(adj.source, []).append(adj)
            self._nodes.add(adj.source)
            self._nodes.add(adj.target)
        for edges in self._out.values():
            edges.sort(key=lambda a: a.target)
        self._record_at = set(record_at) if record_at is not None else None
        self._record_alt_at = set(record_alternatives_at or ())

    @classmethod
    def from_context(cls, context, record_at=None,
                     record_alternatives_at=None) -> "ReferencePropagationEngine":
        """The oracle over a production context's topology."""
        return cls(adjacencies_from_index(context.index),
                   record_at=record_at,
                   record_alternatives_at=record_alternatives_at)

    # -- public API ----------------------------------------------------------

    def origin_fragments(
        self, spec: OriginSpec
    ) -> Tuple[List[PropagatedRoute], List[PropagatedRoute]]:
        """One origin's recorded (best, offered) routes as plain lists,
        in the oracle's recording order."""
        return self.propagate_origin(spec).recorded_fragments()[spec.asn]

    def nodes(self) -> Set[int]:
        """All ASNs known to the engine."""
        return set(self._nodes)

    def propagate(self, origins: Iterable[OriginSpec]) -> ObjectResult:
        """Propagate every origin and return the recorded routes."""
        result = ObjectResult()
        for spec in origins:
            self._propagate_one(spec, result)
        return result

    def propagate_origin(self, spec: OriginSpec) -> ObjectResult:
        """Propagate a single origin (convenience wrapper)."""
        return self.propagate([spec])

    # -- internals -----------------------------------------------------------

    def _propagate_one(self, spec: OriginSpec, result: ObjectResult) -> None:
        origin = spec.asn

        state: Dict[int, PropagatedRoute] = {}
        offers: Dict[int, List[PropagatedRoute]] = {}

        origin_route = PropagatedRoute(
            asn=origin,
            path=(origin,),
            communities=frozenset(spec.communities),
            provenance=CLASS_ORIGIN,
            learned_from=None,
        )
        state[origin] = origin_route

        # Phase 1: customer routes climb provider chains (and sibling links).
        self._run_phase(
            state,
            offers,
            frontier=[origin],
            allowed_relationships=(Relationship.CUSTOMER, Relationship.SIBLING),
            provenance=CLASS_CUSTOMER,
            export_requires=CLASS_CUSTOMER,
        )

        # Phase 2: one hop across peering links (bilateral and route-server).
        peer_sources = [asn for asn, route in state.items()
                        if route.provenance <= CLASS_CUSTOMER]
        self._run_single_hop(
            state,
            offers,
            sources=peer_sources,
            allowed_relationships=(Relationship.PEER, Relationship.RS_PEER),
            provenance=CLASS_PEER,
        )

        # Phase 3: everything propagates down to customers.
        provider_sources = list(state.keys())
        self._run_phase(
            state,
            offers,
            frontier=provider_sources,
            allowed_relationships=(Relationship.PROVIDER, Relationship.SIBLING),
            provenance=CLASS_PROVIDER,
            export_requires=CLASS_PROVIDER,
        )

        self._record(spec, state, offers, result)

    def _run_phase(
        self,
        state: Dict[int, PropagatedRoute],
        offers: Dict[int, List[PropagatedRoute]],
        frontier: List[int],
        allowed_relationships: Tuple[Relationship, ...],
        provenance: int,
        export_requires: int,
    ) -> None:
        """Breadth-first propagation along the given relationship classes.

        ``export_requires`` caps the provenance class an AS must hold to
        keep exporting inside this phase (customer phase: only own/customer
        routes climb; provider phase: anything flows down).
        """
        heap: List[Tuple[int, int, int]] = []
        counter = 0
        for asn in frontier:
            route = state.get(asn)
            if route is None:
                continue
            heapq.heappush(heap, (len(route.path), asn, counter))
            counter += 1

        while heap:
            _, source, _ = heapq.heappop(heap)
            source_route = state.get(source)
            if source_route is None:
                continue
            if source_route.provenance > export_requires:
                continue
            for adj in self._out.get(source, ()):
                if adj.relationship not in allowed_relationships:
                    continue
                candidate = self._build_candidate(adj, source_route, provenance)
                self._offer(offers, adj.target, candidate)
                if self._better(candidate, state.get(adj.target)):
                    state[adj.target] = candidate
                    heapq.heappush(heap, (len(candidate.path), adj.target, counter))
                    counter += 1

    def _run_single_hop(
        self,
        state: Dict[int, PropagatedRoute],
        offers: Dict[int, List[PropagatedRoute]],
        sources: List[int],
        allowed_relationships: Tuple[Relationship, ...],
        provenance: int,
    ) -> None:
        """One-hop propagation used for the peering phase."""
        updates: Dict[int, PropagatedRoute] = {}
        for source in sorted(sources):
            source_route = state.get(source)
            if source_route is None or source_route.provenance > CLASS_CUSTOMER:
                continue
            for adj in self._out.get(source, ()):
                if adj.relationship not in allowed_relationships:
                    continue
                candidate = self._build_candidate(adj, source_route, provenance)
                self._offer(offers, adj.target, candidate)
                current = state.get(adj.target)
                pending = updates.get(adj.target)
                best_existing = pending if self._better_or_equal(pending, current) else current
                if self._better(candidate, best_existing):
                    updates[adj.target] = candidate
        for asn, candidate in updates.items():
            if self._better(candidate, state.get(asn)):
                state[asn] = candidate

    def _build_candidate(
        self,
        adj: Adjacency,
        source_route: PropagatedRoute,
        provenance: int,
    ) -> PropagatedRoute:
        received = source_route.path
        if adj.via_rs_asn is not None and not adj.rs_transparent:
            received = (adj.via_rs_asn,) + received
        path = (adj.target,) + received
        communities = source_route.communities
        if adj.communities:
            communities = communities | adj.communities
        # Sibling links are transparent: they keep the exporter's provenance.
        if adj.relationship is Relationship.SIBLING:
            new_provenance = source_route.provenance
        else:
            new_provenance = max(provenance, source_route.provenance) \
                if provenance == CLASS_PROVIDER else provenance
        if provenance == CLASS_PROVIDER and adj.relationship is Relationship.PROVIDER:
            new_provenance = CLASS_PROVIDER
        return PropagatedRoute(
            asn=adj.target,
            path=path,
            communities=communities,
            provenance=new_provenance,
            learned_from=adj.source,
        )

    @staticmethod
    def _key(route: PropagatedRoute) -> Tuple[int, int, int]:
        return (route.provenance, len(route.path),
                route.learned_from if route.learned_from is not None else -1)

    def _better(self, candidate: PropagatedRoute, current: Optional[PropagatedRoute]) -> bool:
        if candidate is None:
            return False
        if current is None:
            return True
        return self._key(candidate) < self._key(current)

    def _better_or_equal(
        self, candidate: Optional[PropagatedRoute], current: Optional[PropagatedRoute]
    ) -> bool:
        if candidate is None:
            return False
        if current is None:
            return True
        return self._key(candidate) <= self._key(current)

    def _offer(
        self,
        offers: Dict[int, List[PropagatedRoute]],
        target: int,
        candidate: PropagatedRoute,
    ) -> None:
        if target in self._record_alt_at:
            offers.setdefault(target, []).append(candidate)

    def _record(
        self,
        spec: OriginSpec,
        state: Dict[int, PropagatedRoute],
        offers: Dict[int, List[PropagatedRoute]],
        result: ObjectResult,
    ) -> None:
        recordable = self._record_at
        best = [route for asn, route in state.items()
                if recordable is None or asn in recordable]
        offered = [candidate for asn, candidates in offers.items()
                   if recordable is None or asn in recordable
                   for candidate in candidates]
        result.record(spec, best, offered)

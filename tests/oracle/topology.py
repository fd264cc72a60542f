"""The link-object walk the graph's typed adjacency is checked against.

:class:`LinkWalk` is the original implementation of the
:class:`~repro.topology.as_graph.ASGraph` relationship queries: every
answer looks up the link to a neighbour (as
:meth:`~repro.topology.as_graph.ASGraph.get_link` does) and decodes its
type and orientation, the relationship map walks the links in insertion
order, and a customer cone is a BFS over those per-neighbour lookups.
The links and neighbour sets are copied from ``graph.links()`` when the
walk is built, so nothing here reads the typed map under test.

:func:`differences` runs every query of both sides over every AS and
lists what disagrees; the differential test and the CI scenario matrix
assert it is empty.

The record oracle of the CSR index build lives here too: the original
record-by-record path (:func:`link_adjacencies` turns each link into two
:class:`~repro.bgp.propagation.Adjacency` objects, :func:`record_index`
files one record per adjacency into its phases and sorts each phase
with ``list.sort``).  :func:`index_differences` compares two indexes
field by field; production's :meth:`ASGraph.build_index` and
:func:`tests.oracle.propagation.index_from_adjacencies` are held to it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.policy import Relationship
from repro.bgp.propagation import Adjacency
from repro.runtime.csr import REL_CODE, CSRIndex, PhaseEdges
from repro.runtime.frontier import (
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    REL_RS_PEER,
    REL_SIBLING,
)
from repro.runtime.interning import Interner
from repro.runtime.stores import CommunityBagStore
from repro.topology.as_graph import ASGraph, ASLink
from repro.topology.customer_cone import customer_cones
from repro.topology.relationships import LINK_RELATIONSHIPS, LinkType


class LinkWalk:
    """Relationship queries answered by walking link objects."""

    def __init__(self, graph: ASGraph) -> None:
        self._links: Dict[Tuple[int, int], ASLink] = {}
        self._neighbours: Dict[int, Set[int]] = {
            asn: set() for asn in graph.asns()}
        for link in graph.links():
            self._links[link.endpoints] = link
            self._neighbours[link.a].add(link.b)
            self._neighbours[link.b].add(link.a)

    def get_link(self, a: int, b: int) -> Optional[ASLink]:
        """:meth:`ASGraph.get_link` over the links as they were when
        this walk was built."""
        return self._links.get((a, b) if a < b else (b, a))

    def neighbours(self, asn: int) -> Set[int]:
        return set(self._neighbours.get(asn, set()))

    def customers(self, asn: int) -> List[int]:
        result = []
        for other in self._neighbours.get(asn, set()):
            link = self.get_link(asn, other)
            if link and link.link_type is LinkType.C2P and link.b == asn:
                result.append(other)
        return sorted(result)

    def providers(self, asn: int) -> List[int]:
        result = []
        for other in self._neighbours.get(asn, set()):
            link = self.get_link(asn, other)
            if link and link.link_type is LinkType.C2P and link.a == asn:
                result.append(other)
        return sorted(result)



    def relationship(self, local: int, remote: int) -> Optional[Relationship]:
        link = self.get_link(local, remote)
        if link is None:
            return None
        if link.link_type is LinkType.C2P:
            return Relationship.CUSTOMER if link.a == remote \
                else Relationship.PROVIDER
        if link.link_type is LinkType.P2P:
            return Relationship.PEER
        if link.link_type is LinkType.RS_P2P:
            return Relationship.RS_PEER
        return Relationship.SIBLING

    def relationship_map(self) -> Dict[Tuple[int, int], Relationship]:
        result: Dict[Tuple[int, int], Relationship] = {}
        for link in self._links.values():
            rel_ab = self.relationship(link.a, link.b)
            rel_ba = self.relationship(link.b, link.a)
            if rel_ab is not None:
                result[(link.a, link.b)] = rel_ab
            if rel_ba is not None:
                result[(link.b, link.a)] = rel_ba
        return result

    def customer_cone(self, asn: int,
                      customers: Optional[Dict[int, List[int]]] = None,
                      ) -> Set[int]:
        """BFS down provider->customer links; *customers* optionally
        memoises :meth:`customers` across the cones of one walk."""
        if customers is None:
            customers = {}
        cone: Set[int] = {asn}
        frontier: List[int] = [asn]
        while frontier:
            current = frontier.pop()
            if current not in customers:
                customers[current] = self.customers(current)
            for customer in customers[current]:
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return cone


def differences(graph: ASGraph) -> List[str]:
    """Every query on which *graph* disagrees with :class:`LinkWalk`
    (empty when the typed adjacency is exact)."""
    oracle = LinkWalk(graph)
    found: List[str] = []

    def check(mine, theirs, what: str, *args) -> None:
        if mine != theirs:
            found.append(f"{what.format(*args)}: {mine!r} != {theirs!r}")

    relmap = graph.relationship_map()
    expected = oracle.relationship_map()
    check(dict(relmap), expected, "relationship_map() values")
    check(list(relmap), list(expected), "relationship_map() key order")
    # The oracle's map holds its relationship() of every ordered pair
    # of neighbours.
    relationships = {pair: graph.relationship(*pair) for pair in expected}
    if relationships != expected:
        for pair, rel in expected.items():
            check(relationships[pair], rel, "relationship{}", pair)
    asns = graph.asns()
    #: the oracle's customer lists, shared by the cone walks below.
    memo: Dict[int, List[int]] = {}
    for asn in asns:
        neighbours = oracle.neighbours(asn)
        check(graph.neighbours(asn), neighbours, "neighbours({})", asn)
        check(graph.degree(asn), len(neighbours), "degree({})", asn)
        customers = memo[asn] = oracle.customers(asn)
        check(graph.customers(asn), customers, "customers({})", asn)
        check(graph.transit_degree(asn), len(customers),
              "transit_degree({})", asn)
        check(graph.providers(asn), oracle.providers(asn),
              "providers({})", asn)
    cones = customer_cones(graph)
    for asn in asns:
        check(cones[asn], oracle.customer_cone(asn, memo),
              "customer_cones[{}]", asn)
    return found


# -- the record oracle of the CSR index ------------------------------------------


def link_adjacencies(link: ASLink,
                     rs_community_provider=None) -> List[Adjacency]:
    """The two directed propagation adjacencies of one link, a->b first;
    an rs-p2p link's carry the exporter's RS communities (the provider
    is called for *a*, then *b*)."""
    rel_ab, rel_ba = LINK_RELATIONSHIPS[link.link_type]
    ixp = link.ixp if link.link_type in (LinkType.P2P, LinkType.RS_P2P) \
        else None
    communities_ab = communities_ba = frozenset()
    if link.link_type is LinkType.RS_P2P and \
            rs_community_provider is not None and link.ixp is not None:
        communities_ab = frozenset(rs_community_provider(link.a, link.ixp))
        communities_ba = frozenset(rs_community_provider(link.b, link.ixp))
    return [
        Adjacency(source=link.a, target=link.b, relationship=rel_ba,
                  ixp=ixp, communities=communities_ab),
        Adjacency(source=link.b, target=link.a, relationship=rel_ab,
                  ixp=ixp, communities=communities_ba),
    ]


def graph_adjacencies(graph: ASGraph,
                      rs_community_provider=None) -> List[Adjacency]:
    """Every link's adjacencies, in link order."""
    return [adj for link in graph.links()
            for adj in link_adjacencies(link, rs_community_provider)]


def record_index(adjacencies: Iterable[Adjacency],
                 bags: Optional[CommunityBagStore] = None) -> CSRIndex:
    """The index built one record at a time: intern the sorted endpoint
    set, file a ``(source, target, rel, bag, via)`` record per adjacency
    into its phases (bags interned in record order), then stable-sort
    each phase by ``(source, target)``."""
    adjacency_list = list(adjacencies)
    bags = bags if bags is not None else CommunityBagStore()
    asns = Interner(sorted({asn for adj in adjacency_list
                            for asn in (adj.source, adj.target)}))
    id_of = asns.id_map
    phase_records: Tuple[List[Tuple[int, int, int, int, int]], ...] = (
        [], [], [])
    for adj in adjacency_list:
        rel = REL_CODE[adj.relationship]
        communities = adj.communities
        bag = bags.intern(frozenset(communities)) if communities else 0
        via = adj.via_rs_asn
        record = (id_of[adj.source], id_of[adj.target], rel, bag,
                  via if (via is not None and not adj.rs_transparent) else -1)
        if rel == REL_CUSTOMER or rel == REL_SIBLING:
            phase_records[0].append(record)
        if rel == REL_PEER or rel == REL_RS_PEER:
            phase_records[1].append(record)
        if rel == REL_PROVIDER or rel == REL_SIBLING:
            phase_records[2].append(record)
    phases = [_record_phase(records, len(asns)) for records in phase_records]
    return CSRIndex(asns, bags, *phases, num_edges=len(adjacency_list))


def _record_phase(records: List[Tuple[int, int, int, int, int]],
                  num_nodes: int) -> PhaseEdges:
    records.sort(key=lambda record: (record[0], record[1]))
    indptr = [0] * (num_nodes + 1)
    for record in records:
        indptr[record[0] + 1] += 1
    for node in range(num_nodes):
        indptr[node + 1] += indptr[node]
    return PhaseEdges(indptr=indptr,
                      targets=[record[1] for record in records],
                      rels=[record[2] for record in records],
                      bags=[record[3] for record in records],
                      vias=[record[4] for record in records])


def graph_record_index(graph: ASGraph,
                       rs_community_provider=None) -> CSRIndex:
    """:meth:`ASGraph.build_index` through the record oracle."""
    return record_index(graph_adjacencies(graph, rs_community_provider))


def index_differences(mine: CSRIndex, theirs: CSRIndex) -> List[str]:
    """Every field on which two indexes differ (empty when identical):
    node ASNs, each phase's columns (the same bag ids, not just the same
    community sets), the bag store's values, ``num_nodes`` and
    ``num_edges``."""
    found: List[str] = []

    def check(name: str, a, b) -> None:
        if a != b:
            found.append(f"{name}: {_excerpt(a)} != {_excerpt(b)}")

    check("node_asns", list(mine.node_asns), list(theirs.node_asns))
    check("id_of", dict(mine.id_of), dict(theirs.id_of))
    for phase in ("customer_edges", "peer_edges", "provider_edges"):
        for column in PhaseEdges._fields:
            check(f"{phase}.{column}", getattr(getattr(mine, phase), column),
                  getattr(getattr(theirs, phase), column))
    check("bag values", [mine.bags.value(bag) for bag in range(len(mine.bags))],
          [theirs.bags.value(bag) for bag in range(len(theirs.bags))])
    check("num_nodes", mine.num_nodes, theirs.num_nodes)
    check("num_edges", mine.num_edges, theirs.num_edges)
    return found


def _excerpt(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."

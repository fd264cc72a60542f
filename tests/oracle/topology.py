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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.policy import Relationship
from repro.topology.as_graph import ASGraph, ASLink
from repro.topology.customer_cone import customer_cones
from repro.topology.relationships import LinkType


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

    def peers(self, asn: int, include_rs: bool = True) -> List[int]:
        result = []
        for other in self._neighbours.get(asn, set()):
            link = self.get_link(asn, other)
            if link is None:
                continue
            if link.link_type is LinkType.P2P or (
                include_rs and link.link_type is LinkType.RS_P2P
            ):
                result.append(other)
        return sorted(result)

    def siblings(self, asn: int) -> List[int]:
        result = []
        for other in self._neighbours.get(asn, set()):
            link = self.get_link(asn, other)
            if link and link.link_type is LinkType.SIBLING:
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
        for include_rs in (True, False):
            check(graph.peers(asn, include_rs=include_rs),
                  oracle.peers(asn, include_rs=include_rs),
                  "peers({}, include_rs={})", asn, include_rs)
        check(graph.siblings(asn), oracle.siblings(asn), "siblings({})", asn)
    check(graph.stubs(),
          [node.asn for node in graph.nodes() if not memo[node.asn]],
          "stubs()")
    cones = customer_cones(graph)
    for asn in asns:
        check(cones[asn], oracle.customer_cone(asn, memo),
              "customer_cones[{}]", asn)
    return found

"""Customer cones and customer degrees.

The paper uses the customer cone (the set of ASes reachable by following
provider->customer links downward, as in Luckie et al. [32]) for two
purposes: explaining the EXCLUDE communities set against in-cone ASes
(section 5.5) and computing the customer-degree distributions of figure 7.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.topology.as_graph import ASGraph


def customer_cone(graph: ASGraph, asn: int) -> Set[int]:
    """The customer cone of *asn*: itself plus every AS reachable by
    repeatedly following provider->customer links."""
    return customer_cones(graph, (asn,))[asn]


def customer_cones(graph: ASGraph, asns: Iterable[int] = None) -> Dict[int, Set[int]]:
    """Customer cones for the requested ASes (all ASes by default).

    One walk per AS, over customer lists shared between the walks, so a
    provider loop yields the same cones as walking each AS alone.
    """
    targets = list(asns) if asns is not None else graph.asns()
    below: Dict[int, List[int]] = {}
    cones: Dict[int, Set[int]] = {}
    for asn in targets:
        cone = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            if current not in below:
                below[current] = graph.customers(current)
            for customer in below[current]:
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        cones[asn] = cone
    return cones


def customer_degree(graph: ASGraph, asn: int) -> int:
    """Number of direct customers of *asn* (the paper's 'customer degree')."""
    return graph.transit_degree(asn)


def cone_size_ranking(graph: ASGraph) -> List[int]:
    """ASNs ordered by decreasing customer-cone size (AS-Rank style)."""
    cones = customer_cones(graph)
    return sorted(graph.asns(), key=lambda asn: (-len(cones[asn]), asn))


def is_in_customer_cone(graph: ASGraph, provider: int, candidate: int) -> bool:
    """True if *candidate* is inside *provider*'s customer cone."""
    return candidate in customer_cone(graph, provider)

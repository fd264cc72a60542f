"""AS graph container.

The :class:`ASGraph` holds the ground-truth ecosystem: ASes with their
business attributes (type, region, peering policy, prefixes, IXP
memberships) and annotated links (c2p / p2p / rs-p2p / sibling).  It is
the single source of truth the substrates (route servers, collectors,
looking glasses, registries) and the evaluation analyses read from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.runtime.csr import REL_CODE, CSRIndex, DirectedEdges
from repro.runtime.stores import CommunityBagStore
from repro.topology.relationships import (
    LINK_RELATIONSHIPS,
    LinkType,
    RelationshipMap,
)

#: The typed neighbour map of an AS without neighbours (never written).
_NO_NEIGHBOURS: Dict[int, Relationship] = {}

#: Per link type, the REL_* codes of a link's edges a->b and b->a: how
#: the importer sees the exporter.
_EDGE_RELS: Dict[LinkType, Tuple[int, int]] = {
    link_type: (REL_CODE[rel_ba], REL_CODE[rel_ab])
    for link_type, (rel_ab, rel_ba) in LINK_RELATIONSHIPS.items()}
#: The bag ids of a link's two edges when it carries no communities.
_NO_BAGS = (0, 0)


class PeeringPolicy(enum.Enum):
    """Self-reported peering policy (PeeringDB vocabulary, section 5.2)."""

    OPEN = "open"
    SELECTIVE = "selective"
    RESTRICTIVE = "restrictive"
    UNKNOWN = "unknown"


class GeographicScope(enum.Enum):
    """Self-reported geographic scope of operations (figure 13)."""

    GLOBAL = "global"
    EUROPE = "europe"
    REGIONAL = "regional"
    NOT_AVAILABLE = "n/a"


class ASType(enum.Enum):
    """Coarse role of an AS in the synthetic hierarchy."""

    TIER1 = "tier1"
    TRANSIT = "transit"
    REGIONAL = "regional"
    STUB = "stub"
    CONTENT = "content"


@dataclass
class ASNode:
    """A single autonomous system and its ground-truth attributes."""

    asn: int
    name: str = ""
    as_type: ASType = ASType.STUB
    region: str = "eu-west"
    scope: GeographicScope = GeographicScope.REGIONAL
    policy: PeeringPolicy = PeeringPolicy.UNKNOWN
    prefixes: List[Prefix] = field(default_factory=list)
    #: IXPs where the AS has a presence (by IXP name).
    ixps: Set[str] = field(default_factory=set)
    #: IXPs where the AS is connected to the route server.
    rs_memberships: Set[str] = field(default_factory=set)
    #: True if the AS registers its policy/scope in the PeeringDB substrate.
    in_peeringdb: bool = True


@dataclass(frozen=True)
class ASLink:
    """An undirected, annotated AS link.

    For ``LinkType.C2P`` the convention is that ``a`` is the customer and
    ``b`` the provider.  For peering and sibling links the order carries
    no meaning.
    """

    a: int
    b: int
    link_type: LinkType
    ixp: Optional[str] = None

    @property
    def endpoints(self) -> Tuple[int, int]:
        """Sorted endpoint pair identifying the adjacency."""
        return (min(self.a, self.b), max(self.a, self.b))

    def __str__(self) -> str:
        return f"{self.a}-{self.b} ({self.link_type.value})"


def link_edges(links: Iterable[ASLink], bags: CommunityBagStore,
               rs_community_provider=None) -> DirectedEdges:
    """The directed propagation edges of *links*, as index columns.

    The single source of the link -> edge rule: the full build
    (:meth:`ASGraph.build_index`) and the replay's incremental index
    splice (:meth:`~repro.runtime.csr.CSRIndex.spliced`) both go
    through here, so an event-driven single-link update attaches exactly
    the edges a from-scratch rebuild would.  Each link yields a->b, then
    b->a, with relationships from
    :data:`~repro.topology.relationships.LINK_RELATIONSHIPS`.  The edges
    of an rs-p2p link carry their exporter's route-server communities:
    ``rs_community_provider(exporter, ixp)`` is called for *a*, then
    *b*, and the non-empty results are interned into *bags* in that
    order.  Every other edge carries bag 0; no edge inserts an RS ASN.
    """
    sources: List[int] = []
    targets: List[int] = []
    rels: List[int] = []
    edge_bags: List[int] = []
    intern = bags.intern
    for link in links:
        a, b, link_type = link.a, link.b, link.link_type
        sources += (a, b)
        targets += (b, a)
        rels += _EDGE_RELS[link_type]
        if link_type is LinkType.RS_P2P and \
                rs_community_provider is not None and link.ixp is not None:
            communities_ab = rs_community_provider(a, link.ixp)
            communities_ba = rs_community_provider(b, link.ixp)
            edge_bags += (
                intern(frozenset(communities_ab)) if communities_ab else 0,
                intern(frozenset(communities_ba)) if communities_ba else 0)
        else:
            edge_bags += _NO_BAGS
    return DirectedEdges(sources, targets, rels, edge_bags,
                         [-1] * len(sources))


class ASGraph:
    """Mutable AS-level topology with relationship annotations.

    Relationship queries read one typed neighbour map (ASN -> neighbour
    -> the neighbour's relationship seen from the ASN), derived from the
    links: pickles and deep copies leave it out and rebuild it, while
    :meth:`copy` copies it.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, ASNode] = {}
        self._links: Dict[Tuple[int, int], ASLink] = {}
        self._neighbours: Dict[int, Dict[int, Relationship]] = {}
        #: bumped on every mutation; invalidates the relationship-map
        #: snapshot.
        self._version = 0
        self._relationship_cache: Optional[Tuple[int, RelationshipMap]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_neighbours"], state["_relationship_cache"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._relationship_cache = None
        self._neighbours = {asn: {} for asn in self._nodes}
        for link in self._links.values():
            self._relate(link)

    def copy(self) -> "ASGraph":
        """A copy that mutates independently of this graph: every
        mutable container is copied (each node's ``prefixes``, ``ixps``
        and ``rs_memberships``, the link table and the typed neighbour
        map, two levels deep); the frozen :class:`ASLink` and
        :class:`~repro.bgp.prefix.Prefix` leaves are shared, and the
        relationship-map cache starts empty.  Equal to
        ``copy.deepcopy(graph)``, without walking every object.
        """
        clone = ASGraph.__new__(ASGraph)
        clone.__dict__.update(self.__dict__)
        clone._nodes = {
            asn: replace(node, prefixes=list(node.prefixes),
                         ixps=set(node.ixps),
                         rs_memberships=set(node.rs_memberships))
            for asn, node in self._nodes.items()}
        clone._links = dict(self._links)
        clone._neighbours = {asn: dict(related)
                             for asn, related in self._neighbours.items()}
        clone._relationship_cache = None
        return clone

    # -- nodes ---------------------------------------------------------------

    def add_as(self, node: ASNode) -> ASNode:
        """Add (or replace) an AS."""
        self._nodes[node.asn] = node
        self._neighbours.setdefault(node.asn, {})
        self._version += 1
        return node

    def get_as(self, asn: int) -> ASNode:
        """Return the :class:`ASNode` for *asn* (KeyError if unknown)."""
        return self._nodes[asn]

    def has_as(self, asn: int) -> bool:
        """True if *asn* is in the graph."""
        return asn in self._nodes

    def asns(self) -> List[int]:
        """All ASNs, sorted."""
        return sorted(self._nodes)

    def nodes(self) -> Iterator[ASNode]:
        """Iterate over all AS nodes."""
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    # -- links ---------------------------------------------------------------

    def add_link(self, link: ASLink) -> ASLink:
        """Add (or replace) a link.  Both endpoints must already exist."""
        if link.a not in self._nodes or link.b not in self._nodes:
            raise KeyError(f"both endpoints of {link} must be added first")
        if link.a == link.b:
            raise ValueError("self-loops are not allowed")
        self._links[link.endpoints] = link
        self._relate(link)
        self._version += 1
        return link

    def _relate(self, link: ASLink) -> None:
        """Record *link* in the typed neighbour map of both ends."""
        rel_ab, rel_ba = LINK_RELATIONSHIPS[link.link_type]
        self._neighbours[link.a][link.b] = rel_ab
        self._neighbours[link.b][link.a] = rel_ba

    def add_c2p(self, customer: int, provider: int) -> ASLink:
        """Convenience: add a customer-to-provider link."""
        return self.add_link(ASLink(customer, provider, LinkType.C2P))

    def add_p2p(self, a: int, b: int, ixp: Optional[str] = None,
                multilateral: bool = False) -> ASLink:
        """Convenience: add a (possibly route-server) peering link."""
        link_type = LinkType.RS_P2P if multilateral else LinkType.P2P
        return self.add_link(ASLink(a, b, link_type, ixp=ixp))

    def get_link(self, a: int, b: int) -> Optional[ASLink]:
        """The link between *a* and *b*, or None."""
        return self._links.get((min(a, b), max(a, b)))

    def has_link(self, a: int, b: int) -> bool:
        """True if *a* and *b* are adjacent."""
        return (min(a, b), max(a, b)) in self._links

    def remove_link(self, a: int, b: int) -> bool:
        """Remove the link between *a* and *b* if present."""
        key = (min(a, b), max(a, b))
        link = self._links.pop(key, None)
        if link is None:
            return False
        del self._neighbours[link.a][link.b]
        del self._neighbours[link.b][link.a]
        self._version += 1
        return True

    def links(self, link_type: Optional[LinkType] = None) -> List[ASLink]:
        """All links, optionally filtered by type."""
        if link_type is None:
            return list(self._links.values())
        return [link for link in self._links.values() if link.link_type is link_type]

    # -- adjacency queries -----------------------------------------------------

    def neighbours(self, asn: int) -> Set[int]:
        """ASNs adjacent to *asn*."""
        return set(self._neighbours.get(asn, _NO_NEIGHBOURS))

    def degree(self, asn: int) -> int:
        """Total degree of *asn*."""
        return len(self._neighbours.get(asn, _NO_NEIGHBOURS))

    def _typed(self, asn: int, *relationships: Relationship) -> List[int]:
        """Sorted neighbours of *asn* related to it by *relationships*."""
        return sorted(other for other, rel
                      in self._neighbours.get(asn, _NO_NEIGHBOURS).items()
                      if rel in relationships)

    def customers(self, asn: int) -> List[int]:
        """Direct customers of *asn*."""
        return self._typed(asn, Relationship.CUSTOMER)

    def providers(self, asn: int) -> List[int]:
        """Direct providers of *asn*."""
        return self._typed(asn, Relationship.PROVIDER)

    def relationship(self, local: int, remote: int) -> Optional[Relationship]:
        """Relationship of *remote* as seen from *local*, or None."""
        return self._neighbours.get(local, _NO_NEIGHBOURS).get(remote)

    def relationship_map(self) -> RelationshipMap:
        """Ordered-pair relationship map usable by the valley-free checker:
        a read-only snapshot in link order, the same object until the
        graph's :attr:`version` changes."""
        cached = self._relationship_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        result: Dict[Tuple[int, int], Relationship] = {}
        for link in self._links.values():
            rel_ab, rel_ba = LINK_RELATIONSHIPS[link.link_type]
            result[(link.a, link.b)] = rel_ab
            result[(link.b, link.a)] = rel_ba
        snapshot = RelationshipMap(result)
        self._relationship_cache = (self._version, snapshot)
        return snapshot

    # -- derived structures ------------------------------------------------------

    def transit_degree(self, asn: int) -> int:
        """Number of customers of *asn* (the 'customer degree' of figure 7)."""
        return len(self.customers(asn))

    def members_of_ixp(self, ixp: str) -> List[int]:
        """ASes with a presence at *ixp*."""
        return sorted(asn for asn, node in self._nodes.items() if ixp in node.ixps)

    def rs_members_of_ixp(self, ixp: str) -> List[int]:
        """ASes connected to the route server of *ixp*."""
        return sorted(asn for asn, node in self._nodes.items()
                      if ixp in node.rs_memberships)

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """Prefixes originated by *asn*."""
        return list(self._nodes[asn].prefixes)

    # -- propagation index ---------------------------------------------------------

    def build_index(self, rs_community_provider=None) -> CSRIndex:
        """Build the CSR adjacency index of the graph: one pass over the
        links (:func:`link_edges`), then
        :meth:`~repro.runtime.csr.CSRIndex.from_edges`.

        The index is the once-per-topology structure the frontier
        propagation engine runs on (see :mod:`repro.runtime`); every
        call builds a new one.  ``rs_community_provider`` is a callable
        ``(exporter_asn, ixp_name) -> frozenset[Community]``: route
        servers attach the exporter's communities on rs-p2p edges,
        which is what makes them visible in collector feeds.
        """
        bags = CommunityBagStore()
        return CSRIndex.from_edges(
            link_edges(self._links.values(), bags, rs_community_provider),
            bags)

    # -- summary -------------------------------------------------------------------

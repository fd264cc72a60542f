"""AS relationship inference from public AS paths.

The paper's passive inference (section 4.2, setter-identification case 3)
and its repeller analysis (section 5.5) both rely on CAIDA's AS-Rank
relationship-inference algorithm [32].  This module implements a
self-contained variant of that algorithm working purely from observed AS
paths, exposing the two interfaces the paper consumes:

* ``relationship(a, b)`` — c2p / p2p classification of an observed link;
* ``customer_cone(asn)`` — the set of ASes reachable through inferred
  provider->customer links.

The algorithm follows the classic structure: compute transit degrees,
pick a clique of top transit providers, locate the summit of every path
and vote each link up or down hill, then classify links from the votes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.attributes import ASPath, clean_path_mask
from repro.bgp.policy import Relationship


@dataclass
class InferredRelationships:
    """Result of relationship inference.

    ``c2p`` maps (customer, provider) pairs; ``p2p`` holds sorted peer
    pairs.  Links can appear in only one of the two sets.
    """

    c2p: Set[Tuple[int, int]] = field(default_factory=set)
    p2p: Set[Tuple[int, int]] = field(default_factory=set)
    clique: Set[int] = field(default_factory=set)
    transit_degrees: Dict[int, int] = field(default_factory=dict)

    def relationship(self, local: int, remote: int) -> Optional[Relationship]:
        """Relationship of *remote* as seen from *local*, or None if the
        link was never classified."""
        if (local, remote) in self.c2p:
            return Relationship.PROVIDER
        if (remote, local) in self.c2p:
            return Relationship.CUSTOMER
        key = (min(local, remote), max(local, remote))
        if key in self.p2p:
            return Relationship.PEER
        return None

    def relationship_map(self) -> Dict[Tuple[int, int], Relationship]:
        """Ordered-pair map compatible with the valley-free checker."""
        result: Dict[Tuple[int, int], Relationship] = {}
        for customer, provider in self.c2p:
            result[(customer, provider)] = Relationship.PROVIDER
            result[(provider, customer)] = Relationship.CUSTOMER
        for a, b in self.p2p:
            result[(a, b)] = Relationship.PEER
            result[(b, a)] = Relationship.PEER
        return result

    def links(self) -> Set[Tuple[int, int]]:
        """All classified links as sorted pairs."""
        result = {(min(c, p), max(c, p)) for c, p in self.c2p}
        result |= set(self.p2p)
        return result

    def providers_of(self, asn: int) -> Set[int]:
        """Inferred providers of *asn*."""
        return {provider for customer, provider in self.c2p if customer == asn}

    def customers_of(self, asn: int) -> Set[int]:
        """Inferred customers of *asn*."""
        return {customer for customer, provider in self.c2p if provider == asn}

    def customer_cone(self, asn: int) -> Set[int]:
        """Customer cone of *asn* under the inferred c2p links."""
        cone: Set[int] = {asn}
        frontier = [asn]
        children: Dict[int, Set[int]] = defaultdict(set)
        for customer, provider in self.c2p:
            children[provider].add(customer)
        while frontier:
            current = frontier.pop()
            for customer in children[current]:
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return cone

    def customer_degree(self, asn: int) -> int:
        """Number of inferred direct customers of *asn*."""
        return len(self.customers_of(asn))


class RelationshipInference:
    """Infer business relationships from a corpus of AS paths."""

    def __init__(self, clique_size: int = 10, peer_degree_ratio: float = 2.5) -> None:
        if clique_size < 1:
            raise ValueError("clique_size must be positive")
        self.clique_size = clique_size
        #: Degree ratio under which conflicting links are labelled p2p.
        self.peer_degree_ratio = peer_degree_ratio

    # -- public API ----------------------------------------------------------

    def infer(self, paths: Iterable[ASPath]) -> InferredRelationships:
        """Run the inference over *paths* and return the classification."""
        clean_paths = self._sanitise(paths)
        transit_degrees = self._transit_degrees(clean_paths)
        clique = self._infer_clique(clean_paths, transit_degrees)
        up_votes, observed_links = self._vote(clean_paths, transit_degrees, clique)
        return self._classify(observed_links, up_votes, transit_degrees, clique)

    # -- steps -----------------------------------------------------------------

    @staticmethod
    def _sanitise(paths: Iterable[ASPath]) -> List[Tuple[int, ...]]:
        """Deduplicate prepending, drop dirty paths
        (:func:`~repro.bgp.attributes.clean_path_mask`), dedupe identical
        paths."""
        paths = list(paths)
        offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum([len(path) for path in paths], out=offsets[1:])
        values = np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                             count=int(offsets[-1]))
        clean = clean_path_mask(offsets, values).tolist()
        seen: Set[Tuple[int, ...]] = set()
        result: List[Tuple[int, ...]] = []
        for path, is_clean in zip(paths, clean):
            if not is_clean:
                continue
            collapsed = path.deduplicated().asns
            if len(collapsed) < 2 or collapsed in seen:
                continue
            seen.add(collapsed)
            result.append(collapsed)
        return result

    @staticmethod
    def _transit_degrees(paths: Sequence[Tuple[int, ...]]) -> Dict[int, int]:
        """Transit degree: number of distinct neighbours an AS appears to
        provide transit between (i.e. when it sits in the middle of a path)."""
        transit_neighbours: Dict[int, Set[int]] = defaultdict(set)
        for path in paths:
            for index in range(1, len(path) - 1):
                asn = path[index]
                transit_neighbours[asn].add(path[index - 1])
                transit_neighbours[asn].add(path[index + 1])
        return {asn: len(neigh) for asn, neigh in transit_neighbours.items()}

    def _infer_clique(
        self,
        paths: Sequence[Tuple[int, ...]],
        transit_degrees: Dict[int, int],
    ) -> Set[int]:
        """Pick the top transit providers that are mutually adjacent in paths."""
        if not transit_degrees:
            return set()
        adjacency: Dict[int, Set[int]] = defaultdict(set)
        for path in paths:
            for left, right in zip(path, path[1:]):
                adjacency[left].add(right)
                adjacency[right].add(left)
        ranked = sorted(transit_degrees, key=lambda a: (-transit_degrees[a], a))
        clique: Set[int] = set()
        for candidate in ranked:
            if len(clique) >= self.clique_size:
                break
            # Require adjacency with at least half the current clique to join.
            if clique:
                connected = sum(1 for member in clique
                                if member in adjacency[candidate])
                if connected * 2 < len(clique):
                    continue
            clique.add(candidate)
        return clique

    def _vote(
        self,
        paths: Sequence[Tuple[int, ...]],
        transit_degrees: Dict[int, int],
        clique: Set[int],
    ) -> Tuple[Dict[Tuple[int, int], int], Set[Tuple[int, int]]]:
        """Vote (customer, provider) orientations using the path summit."""
        up_votes: Dict[Tuple[int, int], int] = defaultdict(int)
        observed: Set[Tuple[int, int]] = set()

        def degree(asn: int) -> Tuple[int, int]:
            return (1 if asn in clique else 0, transit_degrees.get(asn, 0))

        for path in paths:
            for left, right in zip(path, path[1:]):
                observed.add((min(left, right), max(left, right)))
            summit_index = max(range(len(path)), key=lambda i: degree(path[i]))
            # Observer side of the summit: each hop goes provider -> customer
            # when walking towards the observer, so path[i] is a customer of
            # path[i + 1] for i < summit.
            for index in range(summit_index):
                up_votes[(path[index], path[index + 1])] += 1
            # Origin side of the summit: path[i + 1] is a customer of path[i].
            for index in range(summit_index, len(path) - 1):
                up_votes[(path[index + 1], path[index])] += 1
        return up_votes, observed

    def _classify(
        self,
        observed_links: Set[Tuple[int, int]],
        up_votes: Dict[Tuple[int, int], int],
        transit_degrees: Dict[int, int],
        clique: Set[int],
    ) -> InferredRelationships:
        result = InferredRelationships(
            clique=set(clique), transit_degrees=dict(transit_degrees))
        for a, b in sorted(observed_links):
            if a in clique and b in clique:
                result.p2p.add((a, b))
                continue
            votes_ab = up_votes.get((a, b), 0)  # a customer of b
            votes_ba = up_votes.get((b, a), 0)  # b customer of a
            degree_a = transit_degrees.get(a, 0)
            degree_b = transit_degrees.get(b, 0)
            if votes_ab and votes_ba:
                # Conflicting evidence: similar transit degrees suggest p2p,
                # otherwise trust the majority direction.
                ratio = (max(degree_a, degree_b) + 1) / (min(degree_a, degree_b) + 1)
                if ratio <= self.peer_degree_ratio and min(votes_ab, votes_ba) * 2 >= max(votes_ab, votes_ba):
                    result.p2p.add((a, b))
                elif votes_ab >= votes_ba:
                    result.c2p.add((a, b))
                else:
                    result.c2p.add((b, a))
            elif votes_ab:
                self._classify_single_direction(
                    result, customer=a, provider=b,
                    transit_degrees=transit_degrees, clique=clique)
            elif votes_ba:
                self._classify_single_direction(
                    result, customer=b, provider=a,
                    transit_degrees=transit_degrees, clique=clique)
            else:
                result.p2p.add((a, b))
        return result

    def _classify_single_direction(
        self,
        result: InferredRelationships,
        customer: int,
        provider: int,
        transit_degrees: Dict[int, int],
        clique: Set[int],
    ) -> None:
        """Classify a link voted in a single direction.

        Links seen only at the very edge of paths with comparable (low)
        transit degrees are likely peering links observed from one side;
        links towards a clearly larger transit provider are c2p.
        """
        degree_c = transit_degrees.get(customer, 0)
        degree_p = transit_degrees.get(provider, 0)
        if provider in clique or degree_p > degree_c * self.peer_degree_ratio + 1:
            result.c2p.add((customer, provider))
        elif degree_c == 0 and degree_p == 0:
            result.p2p.add((min(customer, provider), max(customer, provider)))
        else:
            result.c2p.add((customer, provider))

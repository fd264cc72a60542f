"""Property-style equivalence: frontier kernel vs object-graph reference.

The engine pinned to its array-based frontier kernel
(:mod:`tests.oracle.kernels`) must produce exactly the same best routes — provenance, AS path, transitive
communities, learned-from neighbour — as the retained seed
implementation (:class:`ReferencePropagationEngine`) on any topology.
Randomized small internets across several seeds exercise the corners:
multi-provider hierarchies, bilateral and route-server peering (with
attached communities and non-transparent route servers), sibling links
and origin-attached communities.
"""

import random

import pytest

from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import Adjacency, OriginSpec, PropagationEngine

from tests.oracle.kernels import forced_kernel
from tests.oracle.propagation import (
    ReferencePropagationEngine,
    all_paths,
    best_route,
    bidirectional_adjacencies,
    engine_from_adjacencies,
)


def random_internet(rng, num_ases=28):
    """A random policy-annotated adjacency set plus its ASN list."""
    asns = [64500 + i for i in range(num_ases)]
    adjacencies = []
    linked = set()

    def link(a, b):
        return (min(a, b), max(a, b))

    # Hierarchy: every non-root AS buys transit from 1-2 earlier ASes.
    for i in range(1, num_ases):
        providers = rng.sample(asns[:i], k=min(i, rng.randint(1, 2)))
        for provider in providers:
            linked.add(link(asns[i], provider))
            adjacencies.extend(bidirectional_adjacencies(
                asns[i], provider, Relationship.PROVIDER))

    # Bilateral peering.
    for _ in range(num_ases):
        a, b = rng.sample(asns, 2)
        if link(a, b) in linked:
            continue
        linked.add(link(a, b))
        adjacencies.append(Adjacency(a, b, Relationship.PEER))
        adjacencies.append(Adjacency(b, a, Relationship.PEER))

    # Route-server peering with exporter communities, sometimes through a
    # non-transparent route server.
    rs_asn = 65010
    for _ in range(num_ases // 2):
        a, b = rng.sample(asns, 2)
        if link(a, b) in linked:
            continue
        linked.add(link(a, b))
        transparent = rng.random() < 0.5
        communities_a = frozenset({Community(6695, a & 0xFFFF)})
        communities_b = frozenset({Community(6695, b & 0xFFFF)})
        adjacencies.append(Adjacency(
            a, b, Relationship.RS_PEER, communities=communities_a,
            via_rs_asn=rs_asn, rs_transparent=transparent))
        adjacencies.append(Adjacency(
            b, a, Relationship.RS_PEER, communities=communities_b,
            via_rs_asn=rs_asn, rs_transparent=transparent))

    # A couple of sibling pairs.
    for _ in range(2):
        a, b = rng.sample(asns, 2)
        if link(a, b) in linked:
            continue
        linked.add(link(a, b))
        adjacencies.append(Adjacency(a, b, Relationship.SIBLING))
        adjacencies.append(Adjacency(b, a, Relationship.SIBLING))

    return asns, adjacencies


def random_origins(rng, asns):
    origins = []
    for asn in rng.sample(asns, k=min(len(asns), 10)):
        communities = frozenset()
        if rng.random() < 0.3:
            communities = frozenset({Community(0, asn & 0xFFFF)})
        origins.append(OriginSpec(
            asn=asn,
            prefixes=[Prefix.from_octets(10, (asn >> 8) & 0xFF, asn & 0xFF, 0, 24)],
            communities=communities,
        ))
    return origins


def route_key(route):
    return (route.provenance, route.path, route.communities,
            route.learned_from)


@pytest.mark.parametrize("seed", [1, 7, 20130507, 424242, 999983])
def test_frontier_engine_matches_reference(seed):
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)

    with forced_kernel("frontier"):
        fast = engine_from_adjacencies(adjacencies).propagate(origins)
    reference = ReferencePropagationEngine(adjacencies).propagate(origins)

    for origin in origins:
        for asn in asns:
            fast_route = best_route(fast, asn, origin.asn)
            ref_route = best_route(reference, asn, origin.asn)
            if ref_route is None:
                assert fast_route is None, (seed, origin.asn, asn)
                continue
            assert fast_route is not None, (seed, origin.asn, asn)
            assert route_key(fast_route) == route_key(ref_route), (
                seed, origin.asn, asn)

    assert fast.visible_links() == reference.visible_links()


@pytest.mark.parametrize("seed", [3, 31337])
def test_frontier_engine_matches_reference_with_recording(seed):
    """record_at / record_alternatives_at filtering behaves identically
    for best routes, and the alternative sets cover the same first hops."""
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    observers = rng.sample(asns, k=8)
    alt_observers = observers[:3]

    with forced_kernel("frontier"):
        fast = engine_from_adjacencies(
            adjacencies, record_at=observers,
            record_alternatives_at=alt_observers).propagate(origins)
    reference = ReferencePropagationEngine(
        adjacencies, record_at=observers,
        record_alternatives_at=alt_observers).propagate(origins)

    for origin in origins:
        for asn in asns:
            fast_route = best_route(fast, asn, origin.asn)
            ref_route = best_route(reference, asn, origin.asn)
            assert (fast_route is None) == (ref_route is None)
            if ref_route is not None:
                assert route_key(fast_route) == route_key(ref_route)
        for observer in alt_observers:
            fast_paths = all_paths(fast, observer, origin.asn)
            ref_paths = all_paths(reference, observer, origin.asn)
            assert {r.path[1] for r in fast_paths if len(r.path) > 1} == \
                {r.path[1] for r in ref_paths if len(r.path) > 1}
            if ref_paths:
                # The selected best candidate must agree.
                assert route_key(fast_paths[0]) == route_key(ref_paths[0])

"""Composable generation phases of the synthetic Internet.

The old :class:`~repro.topology.generator.InternetGenerator` was a
single 600-line monolith; scenario families could only reuse it
wholesale.  This module breaks generation into named **phases** — small
functions over a shared :class:`GenerationState` — registered in
:data:`PHASES`:

========================  ====================================================
``allocate-ases``         AS population per tier (+ regions, scopes)
``hierarchy``             tier-1 clique and c2p provider trees
``sibling-links``         a sprinkle of sibling relationships
``backbone-peering``      private bilateral p2p among transit/regional ASes
``prefixes``              sequential /24 allocations per AS
``policies``              self-reported peering policies + PeeringDB presence
``ixp-membership``        IXP rosters and route-server participation
``private-peering``       direct interconnects to hypergiants
``export-intents``        ground-truth ALL+EXCLUDE / NONE+INCLUDE intents
``mlp-links``             materialise reciprocal-allow RS p2p links
``bilateral-ixp``         bilateral (non-RS) sessions across the IXP fabric
========================  ====================================================

A scenario spec selects and parameterizes phases through
``GeneratorConfig.phases`` and the knobs the phase bodies read
(``rs_participation``, ``hypergiant_ixp_presence``, ...).  All phases
draw from one shared ``random.Random``, so a given phase sequence and
config reproduces the exact byte-for-byte ecosystem of the former
monolith: the default order is the monolith's order, verified
bit-identical by the generator test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.bgp.prefix import Prefix
from repro.topology.as_graph import (
    ASGraph,
    ASLink,
    ASNode,
    ASType,
    GeographicScope,
    PeeringPolicy,
)
from repro.topology.relationships import LinkType


@dataclass(frozen=True)
class ExportIntent:
    """Ground-truth export policy of one RS member at one route server.

    ``MODE_ALL_EXCEPT`` announces to every member except ``listed``;
    ``MODE_NONE_EXCEPT`` announces only to ``listed``.
    """

    mode: str
    listed: FrozenSet[int] = frozenset()

    def allows(self, peer_asn: int) -> bool:
        """True if routes should reach *peer_asn* through the route server."""
        if self.mode == MODE_ALL_EXCEPT:
            return peer_asn not in self.listed
        return peer_asn in self.listed


@dataclass
class GenerationState:
    """Mutable state threaded through the generation phases.

    ``config`` is a :class:`~repro.topology.generator.GeneratorConfig`
    (duck-typed here to keep this module free of upward imports); every
    phase reads its knobs from it and draws from the shared ``rng``.
    """

    config: object
    rng: random.Random
    graph: ASGraph
    ixp_specs: List[object]

    # Populated by ``allocate-ases``.
    tier1: List[int] = field(default_factory=list)
    transit: List[int] = field(default_factory=list)
    regional: List[int] = field(default_factory=list)
    stubs: List[int] = field(default_factory=list)
    content: List[int] = field(default_factory=list)
    hypergiants: List[int] = field(default_factory=list)

    prefix_counter: int = 0

    # Populated by the fabric phases.
    private_peering: Set[Tuple[int, int]] = field(default_factory=set)
    export_intents: Dict[Tuple[str, int], ExportIntent] = field(default_factory=dict)
    mlp_ground_truth: Dict[str, Set[Tuple[int, int]]] = field(default_factory=dict)
    hybrid_pairs: Dict[str, Set[Tuple[int, int]]] = field(default_factory=dict)
    bilateral_ixp_pairs: Dict[str, Set[Tuple[int, int]]] = field(default_factory=dict)

    def pick_region(self) -> str:
        return self.rng.choices(
            self.config.regions, weights=self.config.region_weights, k=1)[0]

    def next_prefix(self, length: int = 24) -> Prefix:
        index = self.prefix_counter
        self.prefix_counter += 1
        # Allocate /24s sequentially under 11.0.0.0/8, then 12.0.0.0/8, ...
        base = 11 + (index >> 16)
        network = (base << 24) | ((index & 0xFFFF) << 8)
        return Prefix(network, length)


# -- AS population ------------------------------------------------------------


def phase_allocate_ases(state: GenerationState) -> None:
    """Allocate the AS population of every tier."""
    config = state.config
    rng = state.rng
    graph = state.graph

    for index in range(config.num_tier1):
        asn = 100 + index
        graph.add_as(ASNode(
            asn=asn, name=f"Tier1-{index}", as_type=ASType.TIER1,
            region="global", scope=GeographicScope.GLOBAL))
        state.tier1.append(asn)

    for index in range(config.num_transit):
        asn = 1000 + index
        graph.add_as(ASNode(
            asn=asn, name=f"Transit-{index}", as_type=ASType.TRANSIT,
            region=state.pick_region(),
            scope=GeographicScope.EUROPE if rng.random() < 0.7
            else GeographicScope.GLOBAL))
        state.transit.append(asn)

    for index in range(config.num_regional):
        asn = 5000 + index
        graph.add_as(ASNode(
            asn=asn, name=f"Regional-{index}", as_type=ASType.REGIONAL,
            region=state.pick_region(), scope=GeographicScope.REGIONAL))
        state.regional.append(asn)

    for index in range(config.num_hypergiants):
        asn = 15000 + index
        graph.add_as(ASNode(
            asn=asn, name=f"Hypergiant-{index}", as_type=ASType.CONTENT,
            region="global", scope=GeographicScope.GLOBAL))
        state.hypergiants.append(asn)

    for index in range(config.num_content):
        asn = 16000 + index
        graph.add_as(ASNode(
            asn=asn, name=f"Content-{index}", as_type=ASType.CONTENT,
            region=state.pick_region(), scope=GeographicScope.EUROPE))
        state.content.append(asn)

    for index in range(config.num_stub):
        if rng.random() < config.fraction_32bit_asn:
            asn = 200000 + index
        else:
            asn = 30000 + index
        graph.add_as(ASNode(
            asn=asn, name=f"Stub-{index}", as_type=ASType.STUB,
            region=state.pick_region(),
            scope=GeographicScope.REGIONAL if rng.random() < 0.85
            else GeographicScope.NOT_AVAILABLE))
        state.stubs.append(asn)


def phase_hierarchy(state: GenerationState) -> None:
    """Tier-1 peering clique plus c2p provider trees for every tier."""
    rng = state.rng
    graph = state.graph
    tier1, transit, regional = state.tier1, state.transit, state.regional

    # Tier-1 full mesh of settlement-free peering.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            graph.add_p2p(a, b)

    def providers_from(pool: List[int], count: int, region: str) -> List[int]:
        same_region = [p for p in pool if graph.get_as(p).region in (region, "global")]
        candidates = same_region if len(same_region) >= count else pool
        count = min(count, len(candidates))
        return rng.sample(candidates, count) if count else []

    for asn in transit:
        node = graph.get_as(asn)
        for provider in providers_from(tier1, rng.randint(1, 2), node.region):
            graph.add_c2p(asn, provider)

    for asn in regional:
        node = graph.get_as(asn)
        pool = transit + tier1
        for provider in providers_from(pool, rng.randint(1, 3), node.region):
            if not graph.has_link(asn, provider):
                graph.add_c2p(asn, provider)

    for asn in state.hypergiants:
        for provider in rng.sample(tier1, 2):
            graph.add_c2p(asn, provider)

    for asn in state.content:
        node = graph.get_as(asn)
        pool = transit + regional
        for provider in providers_from(pool, rng.randint(1, 2), node.region):
            if not graph.has_link(asn, provider):
                graph.add_c2p(asn, provider)

    for asn in state.stubs:
        node = graph.get_as(asn)
        pool = regional + transit
        for provider in providers_from(pool, rng.randint(1, 2), node.region):
            if not graph.has_link(asn, provider):
                graph.add_c2p(asn, provider)


def phase_sibling_links(state: GenerationState) -> None:
    """A small number of sibling relationships across the population."""
    rng = state.rng
    graph = state.graph
    asns = graph.asns()
    num_pairs = int(len(asns) * state.config.sibling_pair_fraction)
    for _ in range(num_pairs):
        a, b = rng.sample(asns, 2)
        if not graph.has_link(a, b):
            graph.add_link(ASLink(a, b, LinkType.SIBLING))


def phase_backbone_peering(state: GenerationState) -> None:
    """Private (non-IXP) bilateral peering among transit/regional ASes."""
    rng = state.rng
    graph = state.graph
    for i, a in enumerate(state.transit):
        for b in state.transit[i + 1:]:
            if graph.has_link(a, b):
                continue
            same_region = graph.get_as(a).region == graph.get_as(b).region
            if rng.random() < (0.25 if same_region else 0.08):
                graph.add_p2p(a, b)
    for i, a in enumerate(state.regional):
        for b in state.regional[i + 1:]:
            if graph.has_link(a, b):
                continue
            if graph.get_as(a).region != graph.get_as(b).region:
                continue
            if rng.random() < 0.03:
                graph.add_p2p(a, b)


# -- prefixes -----------------------------------------------------------------


def phase_prefixes(state: GenerationState) -> None:
    """Sequential /24 allocations, counts scaled per AS tier."""
    rng = state.rng
    counts = {
        ASType.TIER1: (10, 25),
        ASType.TRANSIT: (4, 15),
        ASType.REGIONAL: (2, 8),
        ASType.CONTENT: (4, 14),
        ASType.STUB: (1, 4),
    }
    for node in state.graph.nodes():
        low, high = counts[node.as_type]
        if node.name.startswith("Hypergiant"):
            low, high = 20, 40
        for _ in range(rng.randint(low, high)):
            node.prefixes.append(state.next_prefix())


# -- policies -----------------------------------------------------------------


def phase_policies(state: GenerationState) -> None:
    """Self-reported peering policies and PeeringDB registration."""
    config = state.config
    rng = state.rng
    graph = state.graph
    open_frac, selective_frac, restrictive_frac = config.policy_fractions

    def pick(weights: Tuple[float, float, float]) -> PeeringPolicy:
        return rng.choices(
            [PeeringPolicy.OPEN, PeeringPolicy.SELECTIVE, PeeringPolicy.RESTRICTIVE],
            weights=weights, k=1)[0]

    for asn in state.tier1:
        graph.get_as(asn).policy = pick((0.05, 0.40, 0.55))
    for asn in state.transit:
        graph.get_as(asn).policy = pick((0.45, 0.45, 0.10))
    for asn in state.regional:
        graph.get_as(asn).policy = pick((open_frac, selective_frac, restrictive_frac))
    for asn in state.content:
        graph.get_as(asn).policy = pick((0.85, 0.13, 0.02))
    for asn in state.stubs:
        graph.get_as(asn).policy = pick((0.80, 0.17, 0.03))
    for asn in state.hypergiants:
        graph.get_as(asn).policy = PeeringPolicy.OPEN

    for node in graph.nodes():
        node.in_peeringdb = rng.random() < config.peeringdb_registration_rate
        if node.name.startswith("Hypergiant") or node.as_type is ASType.TIER1:
            node.in_peeringdb = True


# -- IXP membership -----------------------------------------------------------


def phase_ixp_membership(state: GenerationState) -> None:
    """IXP rosters (region-weighted) and route-server participation."""
    config = state.config
    rng = state.rng
    graph = state.graph
    participation = config.rs_participation

    for spec in state.ixp_specs:
        same_region = [n.asn for n in graph.nodes()
                       if n.region == spec.region and n.as_type is not ASType.TIER1]
        europeans = [n.asn for n in graph.nodes()
                     if n.region.startswith("eu") and n.asn not in same_region
                     and n.as_type is not ASType.TIER1]
        globals_ = [n.asn for n in graph.nodes()
                    if n.region in ("global", "na", "asia")
                    and not n.name.startswith("Hypergiant")]

        members: Set[int] = set()
        # Hypergiants show up at nearly every large IXP.
        for giant in state.hypergiants:
            if rng.random() < config.hypergiant_ixp_presence:
                members.add(giant)

        rng.shuffle(same_region)
        rng.shuffle(europeans)
        rng.shuffle(globals_)
        pools = [(same_region, 0.62), (europeans, 0.28), (globals_, 0.10)]
        for pool, share in pools:
            want = int(spec.target_members * share)
            for asn in pool:
                if len(members) >= spec.target_members:
                    break
                if want <= 0:
                    break
                members.add(asn)
                want -= 1

        for asn in members:
            node = graph.get_as(asn)
            node.ixps.add(spec.name)
            policy_key = node.policy.value if node.policy is not PeeringPolicy.UNKNOWN \
                else "open"
            probability = participation.get(policy_key, 0.7)
            # The spec's own RS fraction modulates the policy-driven rate.
            probability = min(0.98, probability * (spec.rs_fraction / 0.78))
            if rng.random() < probability:
                node.rs_memberships.add(spec.name)


# -- export intents -----------------------------------------------------------


def phase_private_peering(state: GenerationState) -> None:
    """Pairs with a direct private interconnect to a hypergiant (these
    ASes later EXCLUDE the hypergiant at route servers, section 5.5)."""
    rng = state.rng
    probability = state.config.hypergiant_private_peering_probability
    ixp_members = [n.asn for n in state.graph.nodes() if n.ixps]
    for giant in state.hypergiants:
        for asn in ixp_members:
            if asn == giant:
                continue
            if rng.random() < probability:
                state.private_peering.add((min(asn, giant), max(asn, giant)))


def phase_export_intents(state: GenerationState) -> None:
    """Ground-truth export intents for every RS member at every IXP."""
    graph = state.graph
    for spec in state.ixp_specs:
        members = graph.rs_members_of_ixp(spec.name)
        member_set = set(members)
        for asn in members:
            node = graph.get_as(asn)
            state.export_intents[(spec.name, asn)] = _intent_for_member(
                state, node, member_set)


def _intent_for_member(state: GenerationState, node, member_set) -> ExportIntent:
    rng = state.rng
    graph = state.graph
    others = sorted(member_set - {node.asn})
    if not others:
        return ExportIntent(MODE_ALL_EXCEPT, frozenset())

    def pick_excludes(max_count: int) -> FrozenSet[int]:
        count = rng.randint(0, max_count)
        chosen: Set[int] = set()
        # Prefer hypergiants reached over private interconnects.
        for giant in state.hypergiants:
            if giant in member_set and giant != node.asn:
                if (min(node.asn, giant), max(node.asn, giant)) in state.private_peering:
                    if rng.random() < 0.75:
                        chosen.add(giant)
        # Occasionally a provider blocks a co-located customer.
        customers_here = [c for c in graph.customers(node.asn) if c in member_set]
        if customers_here and rng.random() < state.config.exclude_customer_probability:
            chosen.add(rng.choice(customers_here))
        while len(chosen) < count and len(chosen) < len(others):
            chosen.add(rng.choice(others))
        return frozenset(chosen)

    def pick_includes(fraction_low: float, fraction_high: float,
                      minimum: int = 1) -> FrozenSet[int]:
        fraction = rng.uniform(fraction_low, fraction_high)
        count = max(minimum, int(len(others) * fraction))
        count = min(count, len(others))
        return frozenset(rng.sample(others, count))

    policy = node.policy
    roll = rng.random()
    if policy is PeeringPolicy.OPEN:
        if roll < 0.78:
            return ExportIntent(MODE_ALL_EXCEPT, frozenset())
        if roll < 0.96:
            return ExportIntent(MODE_ALL_EXCEPT, pick_excludes(5))
        return ExportIntent(MODE_NONE_EXCEPT, pick_includes(0.70, 0.92))
    if policy is PeeringPolicy.SELECTIVE:
        if roll < 0.58:
            return ExportIntent(MODE_ALL_EXCEPT, pick_excludes(8))
        return ExportIntent(MODE_NONE_EXCEPT, pick_includes(0.05, 0.25))
    # Restrictive networks that nonetheless joined the route server.
    if roll < 0.30:
        return ExportIntent(MODE_ALL_EXCEPT, pick_excludes(6))
    return ExportIntent(MODE_NONE_EXCEPT,
                        pick_includes(0.01, 0.08, minimum=1))


# -- multilateral / bilateral fabric ------------------------------------------


def phase_mlp_links(state: GenerationState) -> None:
    """Materialise reciprocal-allow pairs as RS p2p links (+ hybrids)."""
    graph = state.graph
    for spec in state.ixp_specs:
        members = graph.rs_members_of_ixp(spec.name)
        pairs: Set[Tuple[int, int]] = set()
        hybrid_pairs: Set[Tuple[int, int]] = set()
        for i, a in enumerate(members):
            intent_a = state.export_intents[(spec.name, a)]
            for b in members[i + 1:]:
                intent_b = state.export_intents[(spec.name, b)]
                if not (intent_a.allows(b) and intent_b.allows(a)):
                    continue
                pair = (a, b)
                pairs.add(pair)
                existing = graph.get_link(a, b)
                if existing is None:
                    graph.add_p2p(a, b, ixp=spec.name, multilateral=True)
                elif existing.link_type is LinkType.C2P:
                    hybrid_pairs.add(pair)
        state.mlp_ground_truth[spec.name] = pairs
        state.hybrid_pairs[spec.name] = hybrid_pairs


def phase_bilateral_ixp(state: GenerationState) -> None:
    """Bilateral sessions across the IXP fabric (not via the RS).

    These are the links the paper acknowledges its method cannot see
    (section 5.8); mostly established by members that stayed off the
    route server, plus a few selective RS members.
    """
    rng = state.rng
    graph = state.graph
    low, high = state.config.bilateral_peer_range
    for spec in state.ixp_specs:
        members = graph.members_of_ixp(spec.name)
        rs_members = set(graph.rs_members_of_ixp(spec.name))
        pairs: Set[Tuple[int, int]] = set()
        non_rs = [m for m in members if m not in rs_members]
        for a in non_rs:
            # Selective bilateral peers connect to a handful of others.
            candidates = [m for m in members if m != a]
            if not candidates:
                continue
            for b in rng.sample(candidates,
                                min(len(candidates), rng.randint(low, high))):
                pair = (min(a, b), max(a, b))
                pairs.add(pair)
                if not graph.has_link(a, b):
                    graph.add_p2p(a, b, ixp=spec.name, multilateral=False)
        state.bilateral_ixp_pairs[spec.name] = pairs


#: Phase registry: name -> phase function.
PHASES: Dict[str, Callable[[GenerationState], None]] = {
    "allocate-ases": phase_allocate_ases,
    "hierarchy": phase_hierarchy,
    "sibling-links": phase_sibling_links,
    "backbone-peering": phase_backbone_peering,
    "prefixes": phase_prefixes,
    "policies": phase_policies,
    "ixp-membership": phase_ixp_membership,
    "private-peering": phase_private_peering,
    "export-intents": phase_export_intents,
    "mlp-links": phase_mlp_links,
    "bilateral-ixp": phase_bilateral_ixp,
}

#: The monolith's phase order — the default every spec starts from.
DEFAULT_PHASE_ORDER: Tuple[str, ...] = tuple(PHASES)

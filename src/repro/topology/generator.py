"""Synthetic Internet generator.

The paper measures the live Internet; this module builds the synthetic
stand-in: a hierarchical AS-level topology (tier-1 clique, transit and
regional providers, stubs and content networks), regional assignment,
prefix allocations, self-reported peering policies, IXP and route-server
memberships, and — most importantly — the ground-truth per-member export
intents (ALL+EXCLUDE / NONE+INCLUDE) from which the multilateral peering
fabric follows.

Generation is decomposed into the composable phases of
:mod:`repro.topology.phases`; :class:`GeneratorConfig.phases` selects
(and orders) them, so a scenario family can drop, reorder or substitute
phases while every phase's knobs stay on this config.  The default
phase order reproduces the original monolithic generator bit-for-bit.

The output is a :class:`GeneratedInternet`, the single object the
scenario layer turns into route servers, collectors, looking glasses and
registries.  Because the generator knows the ground truth, the evaluation
can measure precision and visibility exactly, something the paper could
only approximate with looking-glass validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.topology.as_graph import ASGraph
from repro.topology.phases import (  # noqa: F401  (re-exported API)
    DEFAULT_PHASE_ORDER,
    PHASES,
    ExportIntent,
    GenerationState,
    MODE_ALL_EXCEPT,
    MODE_NONE_EXCEPT,
)


@dataclass
class IXPSpec:
    """Static description of one IXP in the synthetic ecosystem."""

    name: str
    rs_asn: int
    region: str
    target_members: int
    rs_fraction: float = 0.78
    pricing: str = "flat"            #: "flat" or "usage" (section 5.7)
    has_rs_lg: bool = True           #: IXP provides an LG to its route server
    scheme_style: str = "rs-asn"     #: community grammar family (Table 1)
    rs_transparent: bool = True      #: route server strips its ASN from paths
    publishes_member_list: bool = True


def default_euro_ixps(member_scale: float = 0.30) -> List[IXPSpec]:
    """The 13 European IXPs of Table 2, with member counts scaled down.

    The route-server fractions follow the RS/ASes columns of Table 2; LG
    availability follows the LG column; the community grammar family is
    diversified as in Table 1 (DE-CIX/MSK-IX style, ECIX offset style and
    an ambiguous zero-prefixed style that exercises the IXP
    disambiguation logic of section 4.2).
    """
    def scaled(members: int) -> int:
        return max(12, int(round(members * member_scale)))

    return [
        IXPSpec("DE-CIX", 6695, "eu-central", scaled(483), 369 / 483, "flat", True, "rs-asn"),
        IXPSpec("AMS-IX", 6777, "eu-west", scaled(574), 444 / 574, "flat", False, "rs-asn"),
        IXPSpec("LINX", 8714, "eu-west", scaled(457), 0.55, "flat", False, "rs-asn",
                publishes_member_list=False),
        IXPSpec("MSK-IX", 8631, "eu-east", scaled(374), 348 / 374, "usage", True, "zero-exclude"),
        IXPSpec("PLIX", 8545, "eu-east", scaled(222), 211 / 222, "flat", True, "rs-asn"),
        IXPSpec("France-IX", 51706, "eu-west", scaled(193), 169 / 193, "flat", True, "rs-asn"),
        IXPSpec("LONAP", 8550, "eu-west", scaled(120), 109 / 120, "flat", False, "rs-asn"),
        IXPSpec("ECIX", 9033, "eu-central", scaled(102), 83 / 102, "flat", True, "offset"),
        IXPSpec("SPB-IX", 43690, "eu-east", scaled(89), 78 / 89, "usage", True, "rs-asn"),
        IXPSpec("DTEL-IX", 31210, "eu-east", scaled(74), 71 / 74, "flat", True, "rs-asn"),
        IXPSpec("TOP-IX", 12956, "eu-south", scaled(71), 52 / 71, "flat", True, "rs-asn",
                rs_transparent=False),
        IXPSpec("STHIX", 35787, "eu-north", scaled(69), 42 / 69, "usage", False, "rs-asn"),
        IXPSpec("BIX.BG", 57463, "eu-east", scaled(53), 52 / 53, "flat", True, "rs-asn"),
    ]


@dataclass
class GeneratorConfig:
    """Tunable parameters of the synthetic Internet.

    ``scale`` multiplies the AS population; ``ixp_member_scale`` multiplies
    the per-IXP member counts of Table 2.  The defaults produce an
    ecosystem that runs end-to-end in seconds while preserving the
    qualitative structure of the paper's measurement.
    """

    seed: int = 20130501
    scale: float = 0.30
    ixp_member_scale: float = 0.30

    num_tier1: int = 8
    num_hypergiants: int = 4
    regions: Tuple[str, ...] = (
        "eu-west", "eu-central", "eu-east", "eu-north", "eu-south", "na", "asia")
    region_weights: Tuple[float, ...] = (0.24, 0.22, 0.20, 0.08, 0.12, 0.08, 0.06)

    fraction_32bit_asn: float = 0.06
    sibling_pair_fraction: float = 0.01

    #: Overall self-reported policy mix (section 5.2: 72% / 24% / 4%).
    policy_fractions: Tuple[float, float, float] = (0.72, 0.24, 0.04)
    #: Fraction of IXP members that register in the PeeringDB substrate.
    peeringdb_registration_rate: float = 0.55
    #: Per-IXP probability of joining the route server, by policy.
    rs_participation: Dict[str, float] = field(default_factory=lambda: {
        "open": 0.88, "selective": 0.66, "restrictive": 0.34})

    ixps: Optional[List[IXPSpec]] = None

    #: Probability that an excluding member picks one of its own customers
    #: (drives the paper's "12% of EXCLUDEs block a co-located customer").
    exclude_customer_probability: float = 0.12

    #: Per-IXP probability that a hypergiant joins the roster.
    hypergiant_ixp_presence: float = 0.9
    #: Per-(hypergiant, IXP member) probability of a private interconnect.
    hypergiant_private_peering_probability: float = 0.06
    #: Bilateral (non-RS) session count range per off-RS member.
    bilateral_peer_range: Tuple[int, int] = (1, 6)
    #: Content-AS population multiplier (content-heavy eras raise it).
    content_multiplier: float = 1.0

    #: Generation phase sequence (None -> the monolith-equivalent
    #: :data:`~repro.topology.phases.DEFAULT_PHASE_ORDER`).
    phases: Optional[Tuple[str, ...]] = None

    def resolved_ixps(self) -> List[IXPSpec]:
        """The configured IXP specs (Table 2 defaults if not overridden)."""
        if self.ixps is not None:
            return self.ixps
        return default_euro_ixps(self.ixp_member_scale)

    def resolved_phases(self) -> Tuple[str, ...]:
        """The configured phase sequence (validated against the registry)."""
        names = self.phases if self.phases is not None else DEFAULT_PHASE_ORDER
        unknown = [name for name in names if name not in PHASES]
        if unknown:
            raise ValueError(
                f"unknown generation phases {unknown!r} "
                f"(available: {sorted(PHASES)})")
        return tuple(names)

    @property
    def num_transit(self) -> int:
        return max(10, int(130 * self.scale))

    @property
    def num_regional(self) -> int:
        return max(30, int(420 * self.scale))

    @property
    def num_stub(self) -> int:
        return max(80, int(1350 * self.scale))

    @property
    def num_content(self) -> int:
        return max(10, int(110 * self.scale * self.content_multiplier))


@dataclass
class GeneratedInternet:
    """The generator output: ground truth for every downstream substrate."""

    graph: ASGraph
    config: GeneratorConfig
    ixp_specs: List[IXPSpec]
    #: (ixp name, member ASN) -> ground-truth export intent.
    export_intents: Dict[Tuple[str, int], ExportIntent]
    #: Per-IXP ground-truth multilateral peering pairs (reciprocal allow).
    mlp_ground_truth: Dict[str, Set[Tuple[int, int]]]
    #: Per-IXP bilateral peering pairs established across the IXP fabric.
    bilateral_ixp_pairs: Dict[str, Set[Tuple[int, int]]]
    #: Hypergiant content ASes (Google/Akamai analogues).
    hypergiants: List[int]
    #: Pairs with a private interconnect that motivates EXCLUDE filtering.
    private_peering_pairs: Set[Tuple[int, int]]
    #: Per-IXP pairs that peer over the RS *and* have a c2p relationship.
    hybrid_pairs: Dict[str, Set[Tuple[int, int]]]

    def all_mlp_links(self) -> Set[Tuple[int, int]]:
        """Union of the per-IXP ground-truth MLP pairs."""
        result: Set[Tuple[int, int]] = set()
        for pairs in self.mlp_ground_truth.values():
            result |= pairs
        return result


class InternetGenerator:
    """Build a :class:`GeneratedInternet` by running the configured phases."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()
        self._rng = random.Random(self.config.seed)

    def generate(self) -> GeneratedInternet:
        """Generate the full synthetic ecosystem."""
        config = self.config
        state = GenerationState(
            config=config,
            rng=self._rng,
            graph=ASGraph(),
            ixp_specs=config.resolved_ixps(),
        )
        for name in config.resolved_phases():
            PHASES[name](state)
        return GeneratedInternet(
            graph=state.graph,
            config=config,
            ixp_specs=state.ixp_specs,
            export_intents=state.export_intents,
            mlp_ground_truth=state.mlp_ground_truth,
            bilateral_ixp_pairs=state.bilateral_ixp_pairs,
            hypergiants=state.hypergiants,
            private_peering_pairs=state.private_peering,
            hybrid_pairs=state.hybrid_pairs,
        )

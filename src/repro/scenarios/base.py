"""Scenario-generic measurement-environment assembly.

This module holds everything that is common to *every* scenario family:
the :class:`ScenarioConfig` knob set, the assembled :class:`Scenario`
environment, the stage bodies that build it (topology, IXPs,
propagation, collectors, viewpoints, registries) and the
:data:`STAGE_LIBRARY` of declarative :class:`~repro.pipeline.stage.Stage`
descriptions a :class:`~repro.scenarios.spec.ScenarioSpec` assembles its
stage graph from.

Nothing here is europe2013-specific: the scenario's identity (IXP
roster, community-scheme assignment, topology phases, measurement
surface) lives entirely in the :class:`ScenarioConfig` a spec produces,
so one set of stage bodies serves every registered scenario family.

Assembly is split into stages executed by
:class:`~repro.pipeline.run.ScenarioRun`.  Each stage is a pure
function of the config and its upstream artifacts, so artifacts are
cacheable by fingerprint; the shared random stream of the original
monolithic builder is preserved bit-for-bit by threading the
``random.Random`` state through the artifacts (a stage restores the
upstream state, draws, and publishes the resulting state).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.asn import Private16BitMapper
from repro.bgp.prefix import Prefix
from repro.bgp.policy import MODE_ALL_EXCEPT
from repro.bgp.propagation import OriginSpec, PropagationResult
from repro.collectors.archive import CollectorArchive, MeasurementWindow
from repro.collectors.route_collector import RouteCollector
from repro.collectors.vantage_point import FeedType, VantagePoint
from repro.core.connectivity import ConnectivityDiscovery, ConnectivityReport
from repro.core.engine import MLPInferenceEngine, MLPInferenceResult
from repro.ixp.community_schemes import CommunityScheme, SchemeRegistry
from repro.ixp.ixp import IXP
from repro.ixp.looking_glass import ASLookingGlass, RouteServerLookingGlass
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer
from repro.measurement.geolocation import GeolocationDB
from repro.measurement.traceroute import TracerouteCampaign, TracerouteConfig
from repro.pipeline.stage import Stage, StageGraph
from repro.registries.irr import ASSet, AutNumPolicy, IRRDatabase
from repro.registries.peeringdb import PeeringDB, PeeringDBRecord
from repro.runtime.reachmatrix import ReachabilityPlane
from repro.topology.as_graph import ASGraph, ASType
from repro.topology.customer_cone import customer_cones
from repro.topology.generator import (
    GeneratedInternet,
    GeneratorConfig,
    InternetGenerator,
    IXPSpec,
)
from repro.topology.relationships import RelationshipMap


@dataclass
class ScenarioConfig:
    """Knobs of the full scenario on top of the generator configuration."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 20130507

    #: Fraction of ASes feeding a route collector.
    vantage_point_fraction: float = 0.08
    #: Fraction of vantage points providing a full (non-peer-like) feed.
    full_feed_fraction: float = 0.33
    #: Number of validation looking glasses registered in PeeringDB.
    num_validation_lgs: int = 70
    #: Fraction of validation LGs that display all paths (vs best only).
    all_paths_lg_fraction: float = 0.6
    #: Number of third-party member LGs per IXP without a route-server LG.
    third_party_lgs_per_ixp: int = 2
    #: Number of traceroute monitor ASes.
    num_traceroute_monitors: int = 25
    #: Fraction of transient (single-day) entries injected in the archive.
    transient_fraction: float = 0.01
    #: Fraction of a member's customer-cone prefixes announced to the RS.
    cone_prefix_fraction: float = 0.4
    #: Fraction of (consistent) members given a deviating per-prefix policy.
    inconsistent_member_fraction: float = 0.004
    #: Measurement window (1-7 May 2013 equivalent).
    window: MeasurementWindow = field(default_factory=MeasurementWindow)


@dataclass
class Scenario:
    """The assembled measurement environment."""

    config: ScenarioConfig
    internet: GeneratedInternet
    graph: ASGraph
    schemes: SchemeRegistry
    ixps: Dict[str, IXP]
    route_servers: Dict[str, RouteServer]
    rs_looking_glasses: Dict[str, RouteServerLookingGlass]
    third_party_lgs: Dict[str, List[ASLookingGlass]]
    collectors: List[RouteCollector]
    archive: CollectorArchive
    propagation: PropagationResult
    irr: IRRDatabase
    peeringdb: PeeringDB
    geolocation: GeolocationDB
    validation_lgs: List[ASLookingGlass]
    traceroute: TracerouteCampaign
    vantage_points: List[VantagePoint]
    #: What :meth:`discover_connectivity` and :meth:`run_inference`
    #: memoise, with the inputs it holds for (see :meth:`_memo_slot`).
    _memo: Optional["_InferenceMemo"] = field(
        default=None, init=False, repr=False, compare=False)

    # -- ground truth -----------------------------------------------------------------

    def ground_truth_links(self) -> Set[Tuple[int, int]]:
        """All ground-truth MLP pairs across the IXPs."""
        return self.internet.all_mlp_links()

    def rs_asns(self) -> Dict[str, int]:
        """Route-server ASN per IXP."""
        return {spec.name: spec.rs_asn for spec in self.internet.ixp_specs}

    def mappers(self) -> Dict[str, Private16BitMapper]:
        """Private-ASN mappers per IXP (documented by the IXP operators)."""
        return {name: rs.mapper for name, rs in self.route_servers.items()}

    def relationship_map(self) -> RelationshipMap:
        """Ground-truth ordered-pair relationship map (the graph's snapshot)."""
        return self.graph.relationship_map()

    # -- public views -----------------------------------------------------------------

    def public_bgp_links(self) -> Set[Tuple[int, int]]:
        """AS links visible in the archived collector data."""
        return self.archive.visible_as_links()

    def traceroute_links(self) -> Set[Tuple[int, int]]:
        """AS links derived from the traceroute campaign."""
        return self.traceroute.derive_links(self.propagation)

    # -- inference plumbing --------------------------------------------------------------

    def connectivity_discovery(self) -> ConnectivityDiscovery:
        """The discovery over this scenario's IRR and IXP as-sets."""
        as_set_names = {spec.name: _as_set_name(spec.name)
                        for spec in self.internet.ixp_specs
                        if spec.publishes_member_list}
        return ConnectivityDiscovery(irr=self.irr, as_set_names=as_set_names)

    def _memo_slot(self) -> "_InferenceMemo":
        """The memo of the current inputs, discovering connectivity when
        it starts a new one.

        Everything inference reads is fixed once the scenario is
        assembled, except the route servers (``RouteServer.version``
        counts their membership and RIB changes) and the graph (whose
        :meth:`~repro.topology.as_graph.ASGraph.relationship_map`
        snapshot is one object per graph version); a change to either
        starts a new memo.
        """
        versions = tuple((name, rs.version)
                         for name, rs in self.route_servers.items())
        relationships = self.relationship_map()
        memo = self._memo
        if memo is None or memo.versions != versions \
                or memo.relationships is not relationships:
            reports = self.connectivity_discovery().discover_all(
                self.ixps.values(),
                rs_lgs=self.rs_looking_glasses,
                rs_asns=self.rs_asns(),
            )
            memo = self._memo = _InferenceMemo(
                versions, relationships, reports, {})
        return memo

    def discover_connectivity(self) -> Dict[str, ConnectivityReport]:
        """Connectivity discovery over every IXP, memoised: a membership
        or RIB change on a route server (or a graph change) rediscovers,
        every other run reuses the reports."""
        return self._memo_slot().reports

    def make_engine(self) -> MLPInferenceEngine:
        """Build the inference engine over the discovered members."""
        rs_members = {name: set(report.members)
                      for name, report in self.discover_connectivity().items()}
        return MLPInferenceEngine(
            registry=self.schemes,
            rs_members=rs_members,
            mappers=self.mappers(),
            relationships=self.relationship_map(),
        )

    def run_inference(
        self,
        use_passive: bool = True,
        use_active: bool = True,
        require_reciprocity: bool = True,
    ) -> MLPInferenceResult:
        """Run the end-to-end inference pipeline of section 4.

        The engine's planes are memoised per ``(use_passive,
        use_active)`` until a route server or the graph changes; every
        call builds a fresh result from them, and the reciprocity
        ablation shares the planes of the full run.
        """
        memo = self._memo_slot()
        sources = (use_passive, use_active)
        planes = memo.planes.get(sources)
        if planes is not None:
            return MLPInferenceResult.from_planes(planes, require_reciprocity)
        result = self.make_engine().run(
            passive_entries=self.archive.clean_stable_entries()
            if use_passive else None,
            rs_looking_glasses=self.rs_looking_glasses if use_active else {},
            third_party_lgs=self.third_party_lgs if use_active else {},
            require_reciprocity=require_reciprocity,
        )
        memo.planes[sources] = result.matrix.planes
        return result

    def reachability_matrix(self, result: MLPInferenceResult):
        """The per-IXP reachability planes of *result* (``result.matrix``)."""
        return result.matrix

    # -- misc helpers ---------------------------------------------------------------------

    def origin_prefixes(self) -> Dict[int, List[Prefix]]:
        """Prefixes originated by every AS."""
        return {node.asn: list(node.prefixes) for node in self.graph.nodes()}


@dataclass
class _InferenceMemo:
    """One state of a scenario's route servers and graph, and what
    inference computed at it."""

    #: ``(name, RouteServer.version)`` of every route server.
    versions: Tuple[Tuple[str, int], ...]
    #: the graph's relationship snapshot (compared by identity).
    relationships: RelationshipMap
    #: :meth:`Scenario.discover_connectivity`'s reports.
    reports: Dict[str, ConnectivityReport]
    #: the engine's planes per ``(use_passive, use_active)``.
    planes: Dict[Tuple[bool, bool], Dict[str, ReachabilityPlane]]


def _as_set_name(ixp_name: str) -> str:
    cleaned = ixp_name.upper().replace(".", "-").replace(" ", "-")
    return f"AS-{cleaned}-RS"


# ---------------------------------------------------------------------------
# stage bodies: pure functions of the config and upstream artifacts
# ---------------------------------------------------------------------------


def stage_topology(config: ScenarioConfig) -> GeneratedInternet:
    """Generate the synthetic Internet (graph, IXP specs, ground truth)."""
    return InternetGenerator(config.generator).generate()


def stage_ixps(config: ScenarioConfig, internet: GeneratedInternet) -> Dict[str, object]:
    """Build IXPs/route servers and announce member routes to the RSes."""
    rng = random.Random(config.seed)
    schemes = _build_schemes(internet.ixp_specs)
    ixps, route_servers = _build_ixps(internet, schemes, config)
    _announce_routes(internet, route_servers, rng, config)
    return {
        "schemes": schemes,
        "ixps": ixps,
        "route_servers": route_servers,
        "rng_state": rng.getstate(),
    }


def stage_propagation(
    config: ScenarioConfig,
    internet: GeneratedInternet,
    ixps_artifact: Dict[str, object],
) -> Dict[str, object]:
    """Pick observation points and run valley-free propagation.

    The artifact's ``"backend"`` entry is provenance only: ``"auto"``,
    the engine's batch-size kernel selection.
    """
    graph = internet.graph
    route_servers: Dict[str, RouteServer] = ixps_artifact["route_servers"]
    rng = random.Random()
    rng.setstate(ixps_artifact["rng_state"])

    vantage_points = _pick_vantage_points(internet, rng, config)
    vantage_asns = [vp.asn for vp in vantage_points]
    lg_hosts = _pick_third_party_lg_hosts(internet, rng, config)
    monitors = _pick_traceroute_monitors(internet, rng, config)
    validation_hosts = _pick_validation_hosts(internet, rng, config)

    record_at = set(vantage_asns) | set(monitors) | set(validation_hosts)
    for hosts in lg_hosts.values():
        record_at.update(hosts)

    # The CSR index with the route servers' RS-community bags.
    from repro.scenarios.events import build_context
    context = build_context(graph, route_servers)
    origins = [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
               for node in graph.nodes() if node.prefixes]

    propagation = context.engine(
        record_at=record_at, record_alternatives_at=validation_hosts,
    ).propagate(origins)

    return {
        "context": context,
        "backend": "auto",
        "propagation": propagation,
        "vantage_points": vantage_points,
        "lg_hosts": lg_hosts,
        "monitors": monitors,
        "validation_hosts": validation_hosts,
        "rng_state": rng.getstate(),
    }


def stage_collectors(
    config: ScenarioConfig, propagation_artifact: Dict[str, object]
) -> Dict[str, object]:
    """Archive collector table dumps over the measurement window."""
    collectors, archive = _build_collectors(
        propagation_artifact["vantage_points"],
        propagation_artifact["propagation"],
        config)
    return {"collectors": collectors, "archive": archive}


def stage_viewpoints(
    config: ScenarioConfig,
    internet: GeneratedInternet,
    ixps_artifact: Dict[str, object],
    propagation_artifact: Dict[str, object],
) -> Dict[str, object]:
    """Build looking glasses (RS, third-party, validation) and PeeringDB."""
    route_servers: Dict[str, RouteServer] = ixps_artifact["route_servers"]
    rng = random.Random()
    rng.setstate(propagation_artifact["rng_state"])
    rs_lgs = _build_rs_lgs(internet, route_servers)
    third_party_lgs = _build_third_party_lgs(
        internet, route_servers, propagation_artifact["lg_hosts"])
    validation_lgs, peeringdb = _build_validation_lgs_and_peeringdb(
        internet, propagation_artifact["propagation"], route_servers,
        propagation_artifact["validation_hosts"], rng, config)
    return {
        "rs_looking_glasses": rs_lgs,
        "third_party_lgs": third_party_lgs,
        "validation_lgs": validation_lgs,
        "peeringdb": peeringdb,
        "rng_state": rng.getstate(),
    }


def stage_registries(
    config: ScenarioConfig,
    internet: GeneratedInternet,
    viewpoints_artifact: Dict[str, object],
) -> Dict[str, object]:
    """Build the IRR database and the geolocation substrate."""
    rng = random.Random()
    rng.setstate(viewpoints_artifact["rng_state"])
    irr = _build_irr(internet, rng)
    geolocation = _build_geolocation(internet.graph)
    return {"irr": irr, "geolocation": geolocation}


def stage_scenario(
    config: ScenarioConfig,
    internet: GeneratedInternet,
    ixps_artifact: Dict[str, object],
    propagation_artifact: Dict[str, object],
    collectors_artifact: Dict[str, object],
    viewpoints_artifact: Dict[str, object],
    registries_artifact: Dict[str, object],
) -> Scenario:
    """Assemble the :class:`Scenario` from the stage artifacts."""
    traceroute = TracerouteCampaign(
        internet.graph,
        TracerouteConfig(monitor_asns=propagation_artifact["monitors"]),
        rs_asn_by_ixp={spec.name: spec.rs_asn for spec in internet.ixp_specs},
    )
    return Scenario(
        config=config,
        internet=internet,
        graph=internet.graph,
        schemes=ixps_artifact["schemes"],
        ixps=ixps_artifact["ixps"],
        route_servers=ixps_artifact["route_servers"],
        rs_looking_glasses=viewpoints_artifact["rs_looking_glasses"],
        third_party_lgs=viewpoints_artifact["third_party_lgs"],
        collectors=collectors_artifact["collectors"],
        archive=collectors_artifact["archive"],
        propagation=propagation_artifact["propagation"],
        irr=registries_artifact["irr"],
        peeringdb=viewpoints_artifact["peeringdb"],
        geolocation=registries_artifact["geolocation"],
        validation_lgs=viewpoints_artifact["validation_lgs"],
        traceroute=traceroute,
        vantage_points=propagation_artifact["vantage_points"],
    )


def _build_schemes(ixp_specs: Sequence[IXPSpec]) -> SchemeRegistry:
    registry = SchemeRegistry()
    for spec in ixp_specs:
        registry.add(CommunityScheme.from_style(
            spec.scheme_style, spec.name, spec.rs_asn))
    return registry


def _build_ixps(
    internet: GeneratedInternet,
    schemes: SchemeRegistry,
    config: ScenarioConfig,
) -> Tuple[Dict[str, IXP], Dict[str, RouteServer]]:
    ixps: Dict[str, IXP] = {}
    route_servers: Dict[str, RouteServer] = {}
    for index, spec in enumerate(internet.ixp_specs):
        lan = Prefix.from_octets(185, 1, 4 * index, 0, 22)
        ixp = IXP(
            name=spec.name,
            region=spec.region,
            pricing=spec.pricing,
            peering_lan=lan,
            publishes_member_list=spec.publishes_member_list,
        )
        route_server = RouteServer(
            ixp_name=spec.name,
            rs_asn=spec.rs_asn,
            scheme=schemes.get(spec.name),
            transparent=spec.rs_transparent,
        )
        ixp.add_route_server(route_server)
        for asn in internet.graph.members_of_ixp(spec.name):
            ixp.add_member(asn)
        for asn in internet.graph.rs_members_of_ixp(spec.name):
            intent = internet.export_intents[(spec.name, asn)]
            policy = MemberExportPolicy(
                member_asn=asn, ixp_name=spec.name,
                mode=intent.mode, listed=intent.listed)
            ixp.connect_to_route_server(asn, policy)
        ixps[spec.name] = ixp
        route_servers[spec.name] = route_server
    return ixps, route_servers


def _announce_routes(
    internet: GeneratedInternet,
    route_servers: Dict[str, RouteServer],
    rng: random.Random,
    config: ScenarioConfig,
) -> None:
    """Each RS member announces its own prefixes plus a sample of its
    customer cone's prefixes, tagged per its export policy; a tiny
    fraction of members deviates on one prefix (the <0.5% inconsistency)."""
    graph = internet.graph
    cones = customer_cones(graph, {asn for spec in internet.ixp_specs
                                   for asn in graph.rs_members_of_ixp(spec.name)})
    for spec in internet.ixp_specs:
        route_server = route_servers[spec.name]
        members = graph.rs_members_of_ixp(spec.name)
        for asn in members:
            own_prefixes = graph.prefixes_of(asn)
            announced: List[Tuple[Prefix, Tuple[int, ...]]] = [
                (prefix, (asn,)) for prefix in own_prefixes]
            cone = sorted(cones[asn] - {asn})
            for customer in cone:
                for prefix in graph.prefixes_of(customer):
                    if rng.random() < config.cone_prefix_fraction:
                        announced.append((prefix, (asn, customer)))
            deviate = rng.random() < config.inconsistent_member_fraction
            for index, (prefix, path) in enumerate(announced):
                if deviate and index == 0 and len(announced) > 1:
                    # One prefix announced with an extra, unusual EXCLUDE.
                    others = [m for m in members if m != asn]
                    if others:
                        extra = rng.choice(others)
                        communities = set(
                            route_server.member_communities(asn))
                        communities.add(route_server.scheme.exclude(
                            extra, route_server.mapper))
                        route_server.announce(asn, prefix, path, communities)
                        continue
                route_server.announce(asn, prefix, path)


def _pick_vantage_points(
    internet: GeneratedInternet, rng: random.Random, config: ScenarioConfig
) -> List[VantagePoint]:
    graph = internet.graph
    candidates = [node.asn for node in graph.nodes()
                  if node.as_type in (ASType.TIER1, ASType.TRANSIT, ASType.REGIONAL)]
    count = max(8, int(len(graph) * config.vantage_point_fraction))
    chosen = set(rng.sample(candidates, min(count, len(candidates))))
    # Make sure every IXP has at least one RS feeder: an RS member whose
    # feed can expose that IXP's communities to a collector.
    for spec in internet.ixp_specs:
        members = graph.rs_members_of_ixp(spec.name)
        if not members:
            continue
        if not any(asn in chosen for asn in members):
            chosen.add(rng.choice(members))
    vantage_points = []
    for asn in sorted(chosen):
        feed = FeedType.FULL if rng.random() < config.full_feed_fraction \
            else FeedType.CUSTOMER_ONLY
        vantage_points.append(VantagePoint(asn=asn, feed_type=feed))
    return vantage_points


def _pick_third_party_lg_hosts(
    internet: GeneratedInternet, rng: random.Random, config: ScenarioConfig
) -> Dict[str, List[int]]:
    graph = internet.graph
    hosts: Dict[str, List[int]] = {}
    for spec in internet.ixp_specs:
        if spec.has_rs_lg:
            continue
        members = graph.rs_members_of_ixp(spec.name)
        if not members:
            hosts[spec.name] = []
            continue
        preferred = [asn for asn in members
                     if graph.get_as(asn).as_type in (ASType.TRANSIT, ASType.REGIONAL)]
        pool = preferred or members
        count = min(config.third_party_lgs_per_ixp, len(pool))
        hosts[spec.name] = sorted(rng.sample(pool, count))
    return hosts


def _pick_traceroute_monitors(
    internet: GeneratedInternet, rng: random.Random, config: ScenarioConfig
) -> List[int]:
    graph = internet.graph
    candidates = [node.asn for node in graph.nodes()
                  if node.as_type in (ASType.STUB, ASType.REGIONAL)]
    count = min(config.num_traceroute_monitors, len(candidates))
    return sorted(rng.sample(candidates, count))


def _pick_validation_hosts(
    internet: GeneratedInternet, rng: random.Random, config: ScenarioConfig
) -> List[int]:
    graph = internet.graph
    rs_members = {asn for spec in internet.ixp_specs
                  for asn in graph.rs_members_of_ixp(spec.name)}
    customers_of_members = set()
    for asn in rs_members:
        customers_of_members.update(graph.customers(asn))
    pool = sorted(rs_members | customers_of_members)
    count = min(config.num_validation_lgs, len(pool))
    return sorted(rng.sample(pool, count))


def _build_collectors(
    vantage_points: List[VantagePoint],
    propagation: PropagationResult,
    config: ScenarioConfig,
) -> Tuple[List[RouteCollector], CollectorArchive]:
    route_views = RouteCollector(name="route-views")
    ripe_ris = RouteCollector(name="rrc00")
    for index, vantage_point in enumerate(vantage_points):
        collector = route_views if index % 2 == 0 else ripe_ris
        collector.add_vantage_point(vantage_point)
    archive = CollectorArchive([route_views, ripe_ris], window=config.window,
                               seed=config.seed)
    archive.collect(propagation, transient_fraction=config.transient_fraction)
    return [route_views, ripe_ris], archive


def _build_rs_lgs(
    internet: GeneratedInternet, route_servers: Dict[str, RouteServer]
) -> Dict[str, RouteServerLookingGlass]:
    return {spec.name: RouteServerLookingGlass(route_servers[spec.name])
            for spec in internet.ixp_specs if spec.has_rs_lg}


def _build_third_party_lgs(
    internet: GeneratedInternet,
    route_servers: Dict[str, RouteServer],
    lg_hosts: Dict[str, List[int]],
) -> Dict[str, List[ASLookingGlass]]:
    result: Dict[str, List[ASLookingGlass]] = {}
    for ixp_name, hosts in lg_hosts.items():
        route_server = route_servers[ixp_name]
        lgs: List[ASLookingGlass] = []
        for asn in hosts:
            lg = ASLookingGlass(asn=asn, display_all_paths=True,
                                name=f"{ixp_name}-member-AS{asn}-lg")
            lg.load_route_server_exports(route_server)
            lgs.append(lg)
        result[ixp_name] = lgs
    return result


def _build_validation_lgs_and_peeringdb(
    internet: GeneratedInternet,
    propagation: PropagationResult,
    route_servers: Dict[str, RouteServer],
    validation_hosts: List[int],
    rng: random.Random,
    config: ScenarioConfig,
) -> Tuple[List[ASLookingGlass], PeeringDB]:
    graph = internet.graph
    peeringdb = PeeringDB()

    for node in graph.nodes():
        if not node.in_peeringdb:
            continue
        record = PeeringDBRecord(
            asn=node.asn, name=node.name, policy=node.policy,
            scope=node.scope, ixps=set(node.ixps))
        peeringdb.register(record)

    validation_lgs: List[ASLookingGlass] = []
    for asn in validation_hosts:
        display_all = rng.random() < config.all_paths_lg_fraction
        lg = ASLookingGlass(asn=asn, display_all_paths=display_all,
                            name=f"AS{asn}-lg")
        # Load the AS's BGP view from the propagation result: every offered
        # path (its Adj-RIB-In) when recorded, the best path otherwise —
        # one bulk load of index arrays over the result's route columns.
        # Each origin's routes arrive in ``all_paths`` order, so the
        # first is the best path.
        lg.load_view(propagation.observer_view(asn))
        validation_lgs.append(lg)
        peeringdb.add_looking_glass(asn, f"https://lg.as{asn}.example.net",
                                    display_all_paths=display_all)
    return validation_lgs, peeringdb


def _build_irr(internet: GeneratedInternet, rng: random.Random) -> IRRDatabase:
    irr = IRRDatabase()
    graph = internet.graph

    for spec in internet.ixp_specs:
        members = set(graph.rs_members_of_ixp(spec.name))
        if spec.publishes_member_list:
            # The IXP maintains an as-set of its RS members (a couple of
            # recent joiners may be missing, as in real registries).
            registered = set(members)
            for asn in list(registered):
                if rng.random() < 0.02:
                    registered.discard(asn)
            irr.register_as_set(ASSet(
                name=_as_set_name(spec.name), members=registered,
                maintained_by=spec.rs_asn))

        for asn in members:
            intent = internet.export_intents[(spec.name, asn)]
            register_probability = 0.9 if spec.name == "AMS-IX" else \
                (0.55 if spec.name == "LINX" else 0.25)
            if rng.random() > register_probability:
                continue
            blocked_export: Set[int] = set()
            if intent.mode == MODE_ALL_EXCEPT:
                blocked_export = set(intent.listed)
            else:
                blocked_export = members - set(intent.listed) - {asn}
            # Import filters are at most as restrictive as export filters
            # (section 4.4's empirical finding); about half block fewer.
            if blocked_export and rng.random() < 0.5:
                keep = rng.randint(0, max(0, len(blocked_export) - 1))
                blocked_import = set(rng.sample(sorted(blocked_export), keep))
            else:
                blocked_import = set(blocked_export)
            existing = irr.aut_num(asn)
            policy = existing or AutNumPolicy(asn=asn)
            policy.blocked_export |= blocked_export
            policy.blocked_import |= blocked_import
            policy.rs_peers.add(spec.rs_asn)
            irr.register_aut_num(policy)
    return irr


def _build_geolocation(graph: ASGraph) -> GeolocationDB:
    geodb = GeolocationDB()
    for node in graph.nodes():
        geodb.register_many(node.prefixes, node.region)
    return geodb


# ---------------------------------------------------------------------------
# the stage library: declarative stages every scenario family draws from
# ---------------------------------------------------------------------------


def _run_inference_stage(run):
    scenario: Scenario = run.artifact("scenario")
    options = run.inference_options
    return scenario.run_inference(
        use_passive=options.use_passive,
        use_active=options.use_active,
        require_reciprocity=options.require_reciprocity,
    )


def stage_timeline(run):
    """Replay the spec's event timeline incrementally over the baseline
    propagation (``None`` when the spec declares no timeline).

    Events are derived from the baseline state and the timeline seed,
    then applied one at a time with frontier-limited delta recompute:
    only origins in the affected set are re-propagated, every other
    origin's columnar blocks are reused from the previous result.  The
    replay works on deepcopies, so the cached topology/ixps/propagation
    artifacts are never mutated.
    """
    timeline_spec = getattr(run.spec, "timeline", None)
    if timeline_spec is None:
        return None
    from repro.scenarios.events import (
        TimelineReplay,
        build_timeline,
        record_sets,
    )
    internet: GeneratedInternet = run.artifact("topology")
    ixps_artifact = run.artifact("ixps")
    propagation_artifact = run.artifact("propagation")
    record_at, record_alternatives_at = record_sets(propagation_artifact)
    events = build_timeline(timeline_spec, internet.graph,
                            ixps_artifact["route_servers"])
    replay = TimelineReplay(
        internet.graph, ixps_artifact["route_servers"],
        propagation_artifact["propagation"],
        record_at, record_alternatives_at,
        context=propagation_artifact["context"])
    return replay.replay(events)


def _run_analyses_stage(run):
    from repro.pipeline.analyses import run_analyses
    return run_analyses(
        run.artifact("scenario"), run.artifact("inference"),
        options=run.analysis_options)


#: Every known stage, keyed by name.  A scenario spec's ``stage_names``
#: selects a subset (default: all, in this order); fingerprints come
#: from the declared ``config_keys`` / ``options_key`` plus upstream
#: fingerprints, exactly as before the spec layer existed.
STAGE_LIBRARY: Dict[str, Stage] = {
    stage.name: stage for stage in [
        Stage(
            "topology",
            fn=lambda run: stage_topology(run.config),
            config_keys=("generator",),
            # Bumped with every pickle layout change of the artifact
            # (2: graphs without a CSR index memo).
            version=2,
            persist=True,
        ),
        Stage(
            "ixps",
            fn=lambda run: stage_ixps(
                run.config, run.artifact("topology")),
            deps=("topology",),
            config_keys=("seed", "cone_prefix_fraction",
                         "inconsistent_member_fraction"),
        ),
        Stage(
            "propagation",
            fn=lambda run: stage_propagation(
                run.config, run.artifact("topology"), run.artifact("ixps")),
            deps=("topology", "ixps"),
            config_keys=("vantage_point_fraction", "full_feed_fraction",
                         "third_party_lgs_per_ixp", "num_traceroute_monitors",
                         "num_validation_lgs"),
            # Bumped with every pickle layout change of the artifact
            # (PropagationResult, the context and its path store), so a
            # disk cache never unpickles an old layout (3: path stores
            # without a materialise memo; 4: contexts without a route
            # cache or mutation epoch; 5: contexts without inference
            # state, plans with int64 columns only).
            version=5,
            persist=True,
        ),
        Stage(
            "collectors",
            fn=lambda run: stage_collectors(
                run.config, run.artifact("propagation")),
            deps=("propagation",),
            config_keys=("seed", "window", "transient_fraction"),
        ),
        Stage(
            "viewpoints",
            fn=lambda run: stage_viewpoints(
                run.config, run.artifact("topology"), run.artifact("ixps"),
                run.artifact("propagation")),
            deps=("topology", "ixps", "propagation"),
            config_keys=("all_paths_lg_fraction",),
        ),
        Stage(
            "registries",
            fn=lambda run: stage_registries(
                run.config, run.artifact("topology"),
                run.artifact("viewpoints")),
            deps=("topology", "viewpoints"),
        ),
        Stage(
            "scenario",
            fn=lambda run: stage_scenario(
                run.config, run.artifact("topology"), run.artifact("ixps"),
                run.artifact("propagation"), run.artifact("collectors"),
                run.artifact("viewpoints"), run.artifact("registries")),
            deps=("topology", "ixps", "propagation", "collectors",
                  "viewpoints", "registries"),
        ),
        Stage(
            "connectivity",
            fn=lambda run: run.artifact("scenario").discover_connectivity(),
            deps=("scenario",),
        ),
        Stage(
            "inference",
            fn=_run_inference_stage,
            deps=("scenario", "connectivity"),
            # The options namespace carries the InferenceOptions repr,
            # so the ablations never alias in a shared cache (while
            # every upstream stage stays shared).
            options_key="inference",
            # Bumped with every MLPInferenceResult pickle layout change
            # (2: the result carries its ReachabilityMatrix; 3: planes
            # and matrix carry uint64 link keys; 4: per-IXP results
            # without a link-set memo; 5: the result is its matrix and
            # planes hold the artifact's packed columns).
            version=5,
            persist=True,
        ),
        Stage(
            "reachability",
            fn=lambda run: run.artifact("inference").matrix,
            deps=("inference",),
        ),
        Stage(
            "timeline",
            fn=stage_timeline,
            deps=("topology", "ixps", "propagation"),
            # The timeline namespace carries the TimelineSpec repr, so
            # replays of different event families/seeds never alias;
            # specs without a timeline fingerprint as repr(None).
            options_key="timeline",
        ),
        Stage(
            "analyses",
            fn=_run_analyses_stage,
            deps=("scenario", "inference"),
            options_key="analysis",
        ),
    ]
}


def default_stage_names() -> Tuple[str, ...]:
    """The canonical full pipeline, in declaration order."""
    return tuple(STAGE_LIBRARY)


def stage_graph_for(stage_names: Optional[Sequence[str]] = None) -> StageGraph:
    """A :class:`StageGraph` over the named library stages.

    ``None`` selects the full library.  Unknown names raise ``ValueError``
    (the graph itself validates that every dependency is included).
    """
    names = tuple(stage_names) if stage_names is not None \
        else default_stage_names()
    unknown = [name for name in names if name not in STAGE_LIBRARY]
    if unknown:
        raise ValueError(f"unknown stages {unknown!r} "
                         f"(available: {sorted(STAGE_LIBRARY)})")
    return StageGraph([STAGE_LIBRARY[name] for name in names])

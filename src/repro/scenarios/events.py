"""Event timelines: typed IXP state changes and delta-driven replay.

Real IXP state changes in small deltas — route-server sessions flap,
members edit their export policies, join or leave the RS, announce and
withdraw prefixes.  This module gives scenarios a typed event model for
those deltas plus the machinery to *replay* a timeline incrementally:

* the event types (:class:`SessionDown` .. :class:`PrefixChurn`) and
  :class:`TimelineSpec`, the declarative handle a
  :class:`~repro.scenarios.spec.ScenarioSpec` carries;
* :class:`ReplayState` — the single authoritative interpreter of events
  against a ``(graph, route servers)`` pair.  Both the delta path and
  the from-scratch rebuild used to validate it run events through this
  exact code, so the mutated state is identical by construction and
  bit-identity of the propagation reduces to the CSR index's
  deterministic construction;
* registered event *families* (``churn``, ``failover``, ``flap-storm``)
  that derive deterministic event sequences from a seed and the
  baseline state;
* :class:`TimelineReplay` — applies events one at a time, computes the
  affected origin set on the pre-event index and prior blocks
  (:func:`repro.runtime.delta.affected_update` — cone-scoped and
  observer-gated for removed and added links alike, exact for the edges
  a policy edit re-bagged), re-runs only those origins and patches the
  prior result (:func:`repro.runtime.delta.patched_result`), reusing
  every other origin's columnar blocks byte-for-byte.  A
  :class:`SessionUp` that returns the index to the one its
  :class:`SessionDown` started from takes back the result saved at the
  down and recomputes nothing but new origins.

Layering: this module sits below :mod:`repro.scenarios.spec` (which
imports :class:`TimelineSpec` from here), so it must not import
``spec``/``base``; pipeline imports stay local to the functions using
them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.bgp.prefix import Prefix
from repro.ixp.member import MODE_ALL_EXCEPT, MemberExportPolicy
from repro.ixp.route_server import RouteServer
from repro.runtime.context import PipelineContext
from repro.runtime.delta import (
    KIND_C2P,
    KIND_OTHER,
    KIND_PEER,
    LinkChange,
    affected_update,
    patched_result,
)
from repro.topology.as_graph import ASGraph, ASLink, LinkType, link_edges


# ---------------------------------------------------------------------------
# event types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionDown:
    """A BGP session (AS link) goes down; the link is remembered so a
    later :class:`SessionUp` restores it with its exact annotations."""

    a: int
    b: int


@dataclass(frozen=True)
class SessionUp:
    """The flapped session between *a* and *b* comes back."""

    a: int
    b: int


@dataclass(frozen=True)
class PolicyEdit:
    """An RS member replaces its export policy (mode + listed set)."""

    ixp: str
    member: int
    mode: str = MODE_ALL_EXCEPT
    listed: Tuple[int, ...] = ()


@dataclass(frozen=True)
class MemberJoin:
    """An IXP member connects to the route server (announce-to-all)."""

    ixp: str
    member: int


@dataclass(frozen=True)
class MemberLeave:
    """An RS member tears down its route-server session."""

    ixp: str
    member: int


@dataclass(frozen=True)
class PrefixChurn:
    """An AS announces (or withdraws) one prefix."""

    asn: int
    prefix: str
    withdraw: bool = False


Event = Union[SessionDown, SessionUp, PolicyEdit, MemberJoin, MemberLeave,
              PrefixChurn]


@dataclass(frozen=True)
class TimelineSpec:
    """Declarative timeline handle carried by a scenario spec.

    *family* names a registered event family (:data:`EVENT_FAMILIES`);
    the concrete events are derived deterministically from the baseline
    state and *seed* at replay time, so the spec stays a pure literal
    (and fingerprints via ``repr`` like every other option namespace).
    """

    family: str
    length: int = 8
    seed: int = 0


@dataclass(frozen=True)
class EventEffect:
    """What one applied event touched — the inputs of the affected-set
    computation (:func:`repro.runtime.delta.affected_update`).

    *removed_links*/*added_links* are the exact :class:`ASLink` objects
    taken out of / put into the graph (a retagged multilateral link
    shows up as one removal plus one addition).  *tainted* holds ASNs
    whose attached route-server communities may have changed (policy
    edits): the index splice re-bags their RS edges.
    *dirty_origins* are origins whose spec (prefix list) changed without
    any topology change: the replay re-derives the origin specs, but
    their blocks stay, because propagation never reads an origin's
    prefixes.
    """

    removed_links: Tuple[ASLink, ...] = ()
    added_links: Tuple[ASLink, ...] = ()
    tainted: FrozenSet[int] = frozenset()
    dirty_origins: FrozenSet[int] = frozenset()

    @property
    def links_changed(self) -> int:
        return len(self.removed_links) + len(self.added_links)

    @property
    def touches_index(self) -> bool:
        """True when the CSR index may change (adjacency or edge
        community bags)."""
        return bool(self.removed_links or self.added_links or self.tainted)


class ImpossibleEventError(ValueError):
    """An event that cannot apply to the current state (a down on a
    missing link, a join by a member, ...).  Raised before the event
    mutates anything, so the state stays as it was."""

    def __init__(self, event: Event, reason: str) -> None:
        super().__init__(f"impossible event {event!r}: {reason}")
        self.event = event
        self.reason = reason


# ---------------------------------------------------------------------------
# the event interpreter
# ---------------------------------------------------------------------------


class ReplayState:
    """Authoritative interpreter of events against mutable state.

    Owns the (scenario-private copies of the) graph and route servers
    plus the flap registry: sessions taken down by :class:`SessionDown`
    are remembered with their exact :class:`ASLink` annotations so
    :class:`SessionUp` restores them verbatim and multilateral-pair
    recomputation never resurrects a flapped-down session.
    """

    def __init__(self, graph: ASGraph,
                 route_servers: Dict[str, RouteServer]) -> None:
        self.graph = graph
        self.route_servers = route_servers
        #: sorted endpoint pair -> the removed link, while down.
        self.down_links: Dict[Tuple[int, int], ASLink] = {}

    def apply(self, event: Event) -> EventEffect:
        """Apply *event*; returns what it touched.  Raises
        :class:`ImpossibleEventError`, state untouched, when the event
        cannot apply."""
        handler = _HANDLERS.get(type(event))
        if handler is None:
            raise TypeError(f"unknown event type {type(event).__name__}")
        return handler(self, event)

    # -- multilateral-pair maintenance ---------------------------------------

    def _serving_ixps(self, a: int, b: int) -> List[str]:
        """Route servers (in roster order) serving the pair both ways."""
        serving = []
        for name, route_server in self.route_servers.items():
            if not (route_server.is_member(a) and route_server.is_member(b)):
                continue
            if route_server.member_policy(a).allows(b) and \
                    route_server.member_policy(b).allows(a):
                serving.append(name)
        return serving

    def _recompute_pairs(
        self, member: int, others: Iterable[int],
    ) -> Tuple[List[ASLink], List[ASLink]]:
        """Re-derive the RS p2p links between *member* and *others*.

        Mirrors the generator's ``phase_mlp_links`` semantics: a
        reciprocal-allow pair served by at least one RS holds an
        ``RS_P2P`` link tagged with the first serving IXP; existing
        bilateral/hybrid links (P2P, C2P) are never touched, and
        flapped-down sessions are not resurrected.  Returns the
        ``(removed, added)`` link lists (a retag is one of each).
        """
        graph = self.graph
        removed: List[ASLink] = []
        added: List[ASLink] = []
        for other in sorted(set(others) - {member}):
            link = graph.get_link(member, other)
            if link is not None and link.link_type is not LinkType.RS_P2P:
                continue
            serving = self._serving_ixps(member, other)
            key = (min(member, other), max(member, other))
            if serving:
                if link is None:
                    if key in self.down_links:
                        continue
                    graph.add_p2p(member, other, ixp=serving[0],
                                  multilateral=True)
                    added.append(graph.get_link(member, other))
                elif link.ixp not in serving:
                    graph.remove_link(member, other)
                    removed.append(link)
                    graph.add_p2p(member, other, ixp=serving[0],
                                  multilateral=True)
                    added.append(graph.get_link(member, other))
            elif link is not None:
                graph.remove_link(member, other)
                removed.append(link)
        return removed, added


def _apply_session_down(state: ReplayState, event: SessionDown) -> EventEffect:
    link = state.graph.get_link(event.a, event.b)
    if link is None:
        raise ImpossibleEventError(event, "no link to take down")
    state.graph.remove_link(event.a, event.b)
    state.down_links[link.endpoints] = link
    return EventEffect(removed_links=(link,))


def _apply_session_up(state: ReplayState, event: SessionUp) -> EventEffect:
    key = (min(event.a, event.b), max(event.a, event.b))
    if key not in state.down_links:
        raise ImpossibleEventError(event, "no session down to restore")
    if state.graph.has_link(event.a, event.b):
        raise ImpossibleEventError(event, "link already present")
    link = state.down_links.pop(key)
    state.graph.add_link(link)
    return EventEffect(added_links=(link,))


def _apply_policy_edit(state: ReplayState, event: PolicyEdit) -> EventEffect:
    route_server = state.route_servers[event.ixp]
    if not route_server.is_member(event.member):
        raise ImpossibleEventError(event, "not an RS member")
    policy = MemberExportPolicy(
        member_asn=event.member, ixp_name=event.ixp,
        mode=event.mode, listed=frozenset(event.listed))
    # Re-registering replaces the policy; keep the member's LAN IP so
    # the looking-glass address mapping survives the edit.  The RIB
    # entries are re-announced so their communities re-derive from the
    # *new* policy (that is what propagation and inference observe).
    entries = route_server.routes_from_member(event.member)
    route_server.add_member(event.member, policy,
                            ip_address=route_server.member_ip(event.member))
    for entry in entries:
        route_server.announce(event.member, entry.prefix, entry.as_path)
    removed, added = state._recompute_pairs(event.member,
                                            route_server.member_set())
    # The member's RS communities may have changed: the index splice
    # re-derives the bags of its RS edges even where the link set is
    # unchanged, and reports which of them changed.
    return EventEffect(removed_links=tuple(removed),
                       added_links=tuple(added),
                       tainted=frozenset({event.member}))


def _apply_member_join(state: ReplayState, event: MemberJoin) -> EventEffect:
    route_server = state.route_servers[event.ixp]
    if route_server.is_member(event.member):
        raise ImpossibleEventError(event, "already an RS member")
    node = state.graph.get_as(event.member)
    route_server.add_member(event.member)
    node.ixps.add(event.ixp)
    node.rs_memberships.add(event.ixp)
    for prefix in node.prefixes:
        route_server.announce(event.member, prefix, (event.member,))
    removed, added = state._recompute_pairs(event.member,
                                            route_server.member_set())
    return EventEffect(removed_links=tuple(removed),
                       added_links=tuple(added))


def _apply_member_leave(state: ReplayState, event: MemberLeave) -> EventEffect:
    route_server = state.route_servers[event.ixp]
    if not route_server.is_member(event.member):
        raise ImpossibleEventError(event, "not an RS member")
    others = route_server.member_set() - {event.member}
    route_server.remove_member(event.member)
    state.graph.get_as(event.member).rs_memberships.discard(event.ixp)
    removed, added = state._recompute_pairs(event.member, others)
    return EventEffect(removed_links=tuple(removed),
                       added_links=tuple(added))


def _apply_prefix_churn(state: ReplayState, event: PrefixChurn) -> EventEffect:
    node = state.graph.get_as(event.asn)
    prefix = Prefix.parse(event.prefix)
    if event.withdraw:
        if prefix not in node.prefixes:
            raise ImpossibleEventError(event, "prefix not announced")
        node.prefixes.remove(prefix)
        for ixp_name in sorted(node.rs_memberships):
            route_server = state.route_servers.get(ixp_name)
            if route_server is not None:
                route_server.withdraw(event.asn, prefix)
    else:
        if prefix in node.prefixes:
            raise ImpossibleEventError(event, "prefix already announced")
        node.prefixes.append(prefix)
        for ixp_name in sorted(node.rs_memberships):
            route_server = state.route_servers.get(ixp_name)
            if route_server is not None:
                route_server.announce(event.asn, prefix, (event.asn,))
    # No topology change: the index is untouched, only this origin's
    # spec (prefix list) differs.
    return EventEffect(dirty_origins=frozenset({event.asn}))


_HANDLERS: Dict[type, Callable[[ReplayState, Event], EventEffect]] = {
    SessionDown: _apply_session_down,
    SessionUp: _apply_session_up,
    PolicyEdit: _apply_policy_edit,
    MemberJoin: _apply_member_join,
    MemberLeave: _apply_member_leave,
    PrefixChurn: _apply_prefix_churn,
}


# ---------------------------------------------------------------------------
# event families
# ---------------------------------------------------------------------------

#: family name -> builder(rng, graph, route_servers, length) -> events.
EVENT_FAMILIES: Dict[str, Callable] = {}


def register_event_family(name: str) -> Callable:
    """Decorator registering an event-family builder under *name*."""
    def decorator(builder: Callable) -> Callable:
        if name in EVENT_FAMILIES:
            raise ValueError(f"event family {name!r} is already registered")
        EVENT_FAMILIES[name] = builder
        return builder
    return decorator


def build_timeline(spec: TimelineSpec, graph: ASGraph,
                   route_servers: Dict[str, RouteServer]) -> List[Event]:
    """Derive the concrete event sequence of *spec* from baseline state.

    Deterministic: the builder draws only from ``Random(spec.seed)`` and
    the (insertion-ordered, sorted where sampled) baseline state.
    """
    try:
        builder = EVENT_FAMILIES[spec.family]
    except KeyError:
        raise ValueError(
            f"unknown event family {spec.family!r} "
            f"(registered: {sorted(EVENT_FAMILIES)})") from None
    rng = random.Random(spec.seed)
    return list(builder(rng, graph, route_servers, spec.length))


@register_event_family("failover")
def _build_failover(rng: random.Random, graph: ASGraph,
                    route_servers: Dict[str, RouteServer],
                    length: int) -> List[Event]:
    """Provider-link failover: a multihomed AS loses one upstream, then
    the session is restored — the paper's stuck-routes setting.
    Edge sites (multihomed ASes with no customers of their own) are
    preferred victims: that is where real failovers concentrate, and
    their small cones keep the affected frontier tight."""
    multihomed = [asn for asn in graph.asns() if len(graph.providers(asn)) >= 2]
    edge_sites = [asn for asn in multihomed if not graph.customers(asn)]
    victims = edge_sites or multihomed
    events: List[Event] = []
    pending: Optional[Tuple[int, int]] = None
    while len(events) < length:
        if pending is not None:
            events.append(SessionUp(*pending))
            pending = None
            continue
        if not victims:
            break
        victim = rng.choice(victims)
        provider = rng.choice(sorted(graph.providers(victim)))
        events.append(SessionDown(victim, provider))
        pending = (victim, provider)
    return events


@register_event_family("flap-storm")
def _build_flap_storm(rng: random.Random, graph: ASGraph,
                      route_servers: Dict[str, RouteServer],
                      length: int) -> List[Event]:
    """A handful of sessions flapping repeatedly (down, up, down, ...)."""
    candidates = graph.links(LinkType.P2P) or graph.links(LinkType.C2P)
    ordered = sorted(candidates, key=lambda link: link.endpoints)
    flappers = [ordered[rng.randrange(len(ordered))]
                for _ in range(min(3, len(ordered)))] if ordered else []
    # Deduplicate while preserving draw order.
    seen: Set[Tuple[int, int]] = set()
    flappers = [link for link in flappers
                if not (link.endpoints in seen or seen.add(link.endpoints))]
    events: List[Event] = []
    down: Set[Tuple[int, int]] = set()
    for step in range(length if flappers else 0):
        link = flappers[step % len(flappers)]
        if link.endpoints in down:
            events.append(SessionUp(link.a, link.b))
            down.discard(link.endpoints)
        else:
            events.append(SessionDown(link.a, link.b))
            down.add(link.endpoints)
    return events


@register_event_family("churn")
def _build_churn(rng: random.Random, graph: ASGraph,
                 route_servers: Dict[str, RouteServer],
                 length: int) -> List[Event]:
    """Mixed RS churn: policy edits, leaves, joins and prefix churn."""
    roster = [name for name in route_servers
              if route_servers[name].num_members() >= 2]
    if not roster:
        return []
    # Builder-local membership mirrors so successive draws stay valid
    # (a left member is not edited, a joined member not re-joined).
    members: Dict[str, List[int]] = {
        name: route_servers[name].members() for name in roster}
    joinable: Dict[str, List[int]] = {
        name: sorted(set(graph.members_of_ixp(name)) - set(members[name]))
        for name in roster}
    events: List[Event] = []
    added_prefixes = 0
    for step in range(length):
        ixp = roster[step % len(roster)]
        kind = step % 4
        if kind == 0:  # policy edit: exclude a couple of peers
            member = rng.choice(members[ixp])
            others = [m for m in members[ixp] if m != member]
            excluded = rng.sample(others, min(2, len(others)))
            events.append(PolicyEdit(ixp=ixp, member=member,
                                     mode=MODE_ALL_EXCEPT,
                                     listed=tuple(sorted(excluded))))
        elif kind == 1:  # prefix churn: a member announces a fresh /24
            member = rng.choice(members[ixp])
            events.append(PrefixChurn(
                asn=member, prefix=f"198.18.{added_prefixes % 256}.0/24"))
            added_prefixes += 1
        elif kind == 2 and len(members[ixp]) > 2:  # leave
            member = rng.choice(members[ixp])
            members[ixp] = [m for m in members[ixp] if m != member]
            joinable[ixp] = sorted(set(joinable[ixp]) | {member})
            events.append(MemberLeave(ixp=ixp, member=member))
        elif kind == 3 and joinable[ixp]:  # join
            member = rng.choice(joinable[ixp])
            joinable[ixp] = [m for m in joinable[ixp] if m != member]
            members[ixp] = sorted(set(members[ixp]) | {member})
            events.append(MemberJoin(ixp=ixp, member=member))
        else:  # fallback when leave/join has no candidate
            member = rng.choice(members[ixp])
            events.append(PolicyEdit(ixp=ixp, member=member,
                                     mode=MODE_ALL_EXCEPT, listed=()))
    return events


# ---------------------------------------------------------------------------
# replay: delta-apply with full-rebuild parity helpers
# ---------------------------------------------------------------------------


def record_sets(
    propagation_artifact: Dict[str, object],
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """The (record_at, record_alternatives_at) observer sets the
    propagation stage recorded with, recovered from its artifact."""
    record_at = {vp.asn for vp in propagation_artifact["vantage_points"]}
    record_at.update(propagation_artifact["monitors"])
    record_at.update(propagation_artifact["validation_hosts"])
    for hosts in propagation_artifact["lg_hosts"].values():
        record_at.update(hosts)
    return (frozenset(record_at),
            frozenset(propagation_artifact["validation_hosts"]))


def rs_community_provider(
    route_servers: Dict[str, RouteServer],
) -> Callable:
    """The per-(ASN, IXP) RS-community closure propagation indexes with
    (the propagation stage's and every replay's, via
    :func:`build_context`): a member's
    :meth:`~repro.ixp.route_server.RouteServer.member_communities`,
    which each route server encodes once per installed policy object,
    so an index rebuild re-encodes only edited or re-joined members."""
    def rs_communities(asn: int, ixp_name: str):
        route_server = route_servers.get(ixp_name)
        if route_server is None or not route_server.is_member(asn):
            return frozenset()
        return route_server.member_communities(asn)
    return rs_communities


def build_context(graph: ASGraph,
                  route_servers: Dict[str, RouteServer]) -> PipelineContext:
    """A propagation context over the current graph/RS state (the
    propagation stage builds its context here)."""
    return PipelineContext.from_graph(
        graph, rs_community_provider=rs_community_provider(route_servers))


def origin_specs_of(graph: ASGraph) -> List:
    """The propagation origin list of the current graph state (the
    propagation stage's exact construction and order)."""
    from repro.bgp.propagation import OriginSpec
    return [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
            for node in graph.nodes() if node.prefixes]


def rebuild_propagation(
    graph: ASGraph,
    route_servers: Dict[str, RouteServer],
    record_at: Optional[FrozenSet[int]],
    record_alternatives_at: FrozenSet[int],
):
    """Full from-scratch propagation of the current state (the delta
    path's ground truth).  Returns ``(context, result)``."""
    context = build_context(graph, route_servers)
    result = context.engine(
        record_at=record_at, record_alternatives_at=record_alternatives_at,
    ).propagate(origin_specs_of(graph))
    return context, result


def _link_change(link: ASLink) -> LinkChange:
    """The :func:`~repro.runtime.delta.affected_update` change tuple of
    a removed or added link (C2P with the customer first, per the ASLink
    convention)."""
    if link.link_type is LinkType.C2P:
        return (KIND_C2P, link.a, link.b)
    if link.link_type in (LinkType.P2P, LinkType.RS_P2P):
        return (KIND_PEER, link.a, link.b)
    return (KIND_OTHER, link.a, link.b)


#: :attr:`EventReport.reindex` values: the event's CSR index change.
REINDEX_SPLICE = "splice"    #: link delta spliced into the prior index
REINDEX_REBUILD = "rebuild"  #: from-scratch rebuild (splice fallback)


@dataclass(frozen=True)
class EventReport:
    """Per-event replay accounting."""

    index: int
    event: Event
    affected: int        #: origins in the affected frontier (incl. dirty)
    total: int           #: origins in the patched result
    recomputed: int      #: origins re-run through the kernels
    reused: int          #: origins whose blocks were reused byte-for-byte
    links_changed: int
    seconds: float       #: wall time of the delta apply (incl. reindex)
    #: how the CSR index changed: :data:`REINDEX_SPLICE`,
    #: :data:`REINDEX_REBUILD`, or ``None`` when it was kept as is.
    reindex: Optional[str] = None
    #: a repair that took back the result from before its session went
    #: down (:meth:`TimelineReplay.apply`).
    restored: bool = False
    #: directed edges whose community bag the event changed in a spliced
    #: index (a policy edit's re-bagged edges).
    rebagged: int = 0


@dataclass
class TimelineReport:
    """The outcome of replaying one timeline."""

    events: List[Event]
    reports: List[EventReport]
    result: object  #: the final PropagationResult

    def rows(self) -> List[Dict[str, object]]:
        """Printable per-event rows (survey / bench output)."""
        return [{
            "event": type(report.event).__name__,
            "affected": report.affected,
            "recomputed": report.recomputed,
            "reused": report.reused,
            "affected_fraction": round(report.affected / report.total, 4)
            if report.total else 0.0,
            "links_changed": report.links_changed,
            "reindex": report.reindex,
            "restored": report.restored,
            "rebagged": report.rebagged,
            "seconds": report.seconds,
        } for report in self.reports]


class TimelineReplay:
    """Incremental replay of an event timeline over a baseline result.

    Owns structural copies of the baseline graph and route servers
    (:meth:`ASGraph.copy`, :meth:`RouteServer.copy`: every mutable
    container copied, frozen leaves shared), so cached pipeline
    artifacts are never mutated.  An impossible event raises
    :class:`ImpossibleEventError` from :meth:`apply` with the replay
    unchanged.  Each
    :meth:`apply` computes the affected frontier on the *pre-event*
    index, splices the event's edge delta into the index (rebuilding it
    only when the node set changed), and patches the previous result
    through :func:`repro.runtime.delta.patched_result`.  A repair whose
    index equals the one its session went down from takes back the
    result saved at the down instead.  The origin spec list is kept
    across events and re-derived only after an event that dirtied an
    origin's spec (prefix churn); such an event computes only an origin
    that is new, because propagation never reads an origin's prefixes.
    """

    def __init__(
        self,
        graph: ASGraph,
        route_servers: Dict[str, RouteServer],
        baseline,
        record_at: Optional[Iterable[int]],
        record_alternatives_at: Iterable[int],
        context: Optional[PipelineContext] = None,
    ) -> None:
        self.graph = graph.copy()
        self.route_servers = {name: route_server.copy()
                              for name, route_server in route_servers.items()}
        self.state = ReplayState(self.graph, self.route_servers)
        self.record_at = frozenset(record_at) \
            if record_at is not None else None
        self.record_alternatives_at = frozenset(record_alternatives_at or ())
        #: the RS-community closure the index splices attach bags with.
        self._rs_provider = rs_community_provider(self.route_servers)
        if context is None:
            context = build_context(self.graph, self.route_servers)
        #: context over the *current* replay state; its index doubles as
        #: the next event's pre-event index.
        self.context = context
        #: the current state's origin specs (:func:`origin_specs_of`).
        self._origins = origin_specs_of(self.graph)
        self.result = baseline
        self.reports: List[EventReport] = []
        #: beside the state's flap registry: sorted endpoint pair -> the
        #: (context, result) from just before that session went down.
        self._before_down: Dict[Tuple[int, int],
                                Tuple[PipelineContext, object]] = {}

    def apply(self, event: Event) -> EventReport:
        """Apply one event and patch the result; returns its report.

        A :class:`SessionUp` whose spliced index :meth:`~repro.runtime.
        csr.CSRIndex.matches` the index its :class:`SessionDown` started
        from restores that down's context and result: propagation reads
        only the index, the origins and the recording sets, so the saved
        blocks are the ones a rebuild computes, and only origins the
        saved result lacks (new announcers) are computed.  Any other
        repair takes the delta path and drops the saved pair.
        """
        started = time.perf_counter()
        pre_context = self.context
        prior = self.result
        effect = self.state.apply(event)
        if effect.dirty_origins:
            self._origins = origin_specs_of(self.graph)
        origins = self._origins
        reindex = None
        rebagged: Tuple[Tuple[int, int], ...] = ()
        if effect.touches_index:
            # Splice the link delta (and any tainted member's re-derived
            # edge bags) into the CSR — bit-identical to a rebuild by
            # construction.  Fall back to a from-scratch rebuild when
            # the event changed the adjacency node set (interned ids
            # would shift).  A splice that changes nothing (a member
            # re-installing its policy) keeps the context and its plan.
            splice = self._spliced_index(pre_context.index, effect)
            if splice is None:
                self.context = build_context(self.graph,
                                             self.route_servers)
                reindex = REINDEX_REBUILD
            elif effect.links_changed or splice.rebagged:
                self.context = PipelineContext(splice.index)
                reindex = REINDEX_SPLICE
                rebagged = splice.rebagged
        saved = None
        if isinstance(event, SessionDown):
            self._before_down[effect.removed_links[0].endpoints] = (
                pre_context, prior)
        elif isinstance(event, SessionUp):
            saved = self._before_down.pop(effect.added_links[0].endpoints,
                                          None)
            if saved is not None and \
                    not saved[0].index.matches(self.context.index):
                saved = None
        if saved is not None:
            self.context, prior = saved
            stale: Set[int] = set()
        else:
            records = None if self.record_at is None else \
                self.record_at | self.record_alternatives_at
            # Re-bagged edges are known only for a splice; after a
            # rebuild the edited members' visits stand in for them.
            affected = affected_update(
                prior, pre_context.index, [spec.asn for spec in origins],
                records,
                removed=[_link_change(link) for link in effect.removed_links],
                added=[_link_change(link) for link in effect.added_links],
                rebagged=rebagged,
                tainted=effect.tainted if reindex == REINDEX_REBUILD else ())
            stale = set(affected)
        result, stats = patched_result(prior, origins, stale,
                                       self._fragments_fn)
        seconds = time.perf_counter() - started
        self.result = result
        report = EventReport(
            index=len(self.reports), event=event,
            affected=len(stale), total=stats.total,
            recomputed=stats.recomputed, reused=stats.reused,
            links_changed=effect.links_changed, seconds=seconds,
            reindex=reindex, restored=saved is not None,
            rebagged=len(rebagged))
        self.reports.append(report)
        return report

    def replay(self, events: Sequence[Event]) -> TimelineReport:
        """Apply every event in order; returns the full report."""
        events = list(events)
        for event in events:
            self.apply(event)
        return TimelineReport(events=events, reports=list(self.reports),
                              result=self.result)

    # -- internals -----------------------------------------------------------

    def _spliced_index(self, index, effect: EventEffect):
        """The :class:`~repro.runtime.csr.Splice` of the effect's link
        delta and re-derived bags into the pre-event *index*
        (:meth:`~repro.runtime.csr.CSRIndex.spliced`), or ``None`` when
        the event changed the adjacency node set — an endpoint gaining
        its first or losing its last link shifts interned node ids, so
        only a from-scratch rebuild reproduces a fresh build exactly."""
        for link in effect.removed_links:
            if not self.graph.degree(link.a) or not self.graph.degree(link.b):
                return None
        retag_links = []
        for member in sorted(effect.tainted):
            for other in sorted(self.graph.neighbours(member)):
                link = self.graph.get_link(member, other)
                if link is not None and link.link_type is LinkType.RS_P2P:
                    retag_links.append(link)
        bags = index.bags
        removed = link_edges(effect.removed_links, bags)
        added = link_edges(effect.added_links, bags, self._rs_provider)
        retagged = link_edges(
            [link for link in retag_links if link not in effect.added_links],
            bags, self._rs_provider)
        try:
            return index.spliced(removed, added, retagged)
        except KeyError:
            return None  # un-interned endpoint: node joined the edge set

    def _fragments_fn(self, specs):
        engine = self.context.engine(
            record_at=self.record_at,
            record_alternatives_at=self.record_alternatives_at)
        return engine.batch_fragments(specs)

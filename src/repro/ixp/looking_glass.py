"""Looking-glass servers.

Two kinds of looking glasses matter to the paper:

* :class:`RouteServerLookingGlass` — the LG an IXP provides in front of
  its route server.  It answers the three commands of section 4.1
  (``show ip bgp`` summary, ``show ip bgp neighbor <addr> routes``,
  ``show ip bgp <prefix>``) and is the source of both connectivity and
  reachability data for active inference.
* :class:`ASLookingGlass` — an LG operated by an AS (an RS member or one
  of its customers).  It is used both as a *third-party* source of RS
  communities when an IXP has no LG of its own, and as the validation
  oracle of section 5.1.  Crucially it either displays all known paths or
  only the best path, which caps how many links can be confirmed
  (figure 8).

Every query is counted so the querying-cost analysis of section 4.3 can
be reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.ixp.route_server import RouteServer


@dataclass(frozen=True)
class LGRoute:
    """One route displayed by a looking glass."""

    prefix: Prefix
    as_path: Tuple[int, ...]
    communities: FrozenSet[Community] = frozenset()
    best: bool = False
    learned_from: Optional[int] = None


class LGQueryCounter:
    """Counts queries issued against a looking glass, by command."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def record(self, command: str) -> None:
        """Record one query."""
        self.counts[command] = self.counts.get(command, 0) + 1

    @property
    def total(self) -> int:
        """Total number of queries issued."""
        return sum(self.counts.values())

    def reset(self) -> None:
        """Forget all recorded queries."""
        self.counts.clear()


def _lg_routes(prefix: Prefix, routes) -> List[LGRoute]:
    """LGRoutes for *prefix* from ``(as_path, communities, best,
    learned_from)`` tuples."""
    return [LGRoute(prefix=prefix, as_path=as_path, communities=communities,
                    best=best, learned_from=learned_from)
            for as_path, communities, best, learned_from in routes]


class RouteServerLookingGlass:
    """LG interface in front of an IXP route server."""

    def __init__(self, route_server: RouteServer) -> None:
        self.route_server = route_server
        self.counter = LGQueryCounter()

    @property
    def ixp_name(self) -> str:
        """Name of the IXP whose route server this LG fronts."""
        return self.route_server.ixp_name

    # -- the three commands of section 4.1 -----------------------------------------

    def show_ip_bgp_summary(self) -> List[Tuple[str, int]]:
        """Step 1: the BGP summary — (neighbor address, ASN) of every
        member session on the route server."""
        self.counter.record("show ip bgp")
        return [(self.route_server.member_ip(asn), asn)
                for asn in self.route_server.members()]

    def show_ip_bgp_neighbor_routes(self, neighbor_address: str) -> List[Prefix]:
        """Step 2: prefixes advertised to the RS by the given neighbor."""
        self.counter.record("show ip bgp neighbor routes")
        member = self.route_server.member_by_ip(neighbor_address)
        return self.route_server.announced_prefixes(member)

    def show_ip_bgp_prefix(self, prefix: Prefix) -> List[LGRoute]:
        """Step 3: all paths the route server holds for *prefix*, with the
        communities each announcing member attached."""
        self.counter.record("show ip bgp prefix")
        entries = self.route_server.routes_for_prefix(prefix)
        return [
            LGRoute(prefix=entry.prefix, as_path=entry.as_path,
                    communities=entry.communities, best=(index == 0),
                    learned_from=entry.member_asn)
            for index, entry in enumerate(entries)
        ]


class ASLookingGlass:
    """LG operated by an AS, showing that AS's own BGP view.

    ``display_all_paths`` distinguishes the two LG flavours of figure 8.
    The scenario layer loads the view one of two ways, never both: route
    by route from the route-server exports towards the AS (third-party
    LGs), or as one observer view of the propagation result (validation
    LGs); mixing the two raises ``ValueError``.
    """

    def __init__(
        self,
        asn: int,
        display_all_paths: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.asn = asn
        self.display_all_paths = display_all_paths
        self.name = name or f"AS{asn}-lg"
        self.counter = LGQueryCounter()
        #: prefix -> routes: loaded route by route, or materialised from
        #: the bulk view on the first query for the prefix.
        self._routes: Dict[Prefix, List[LGRoute]] = {}
        #: the bulk-loaded view (an
        #: :class:`~repro.runtime.fragments.ObserverView`), so loading a
        #: large validation LG costs one slice of index arrays, not one
        #: LGRoute per (route, prefix) pair.
        self._view = None
        #: monotonic mutation counter, bumped whenever the view changes;
        #: caches keyed on this LG's view validate against it.
        self.version = 0

    # -- view loading ----------------------------------------------------------------

    def load_route(self, route: LGRoute) -> None:
        """Add one route to the LG's view."""
        if self._view is not None:
            raise ValueError(f"{self.name} holds a bulk view")
        self._routes.setdefault(route.prefix, []).append(route)
        self.version += 1

    def load_view(self, view) -> None:
        """Bulk-load an observer's whole view.

        *view* is an :class:`~repro.runtime.fragments.ObserverView`
        (``PropagationResult.observer_view``): per origin, its routes in
        ``all_paths`` order — the first one is displayed as the best
        path.  Equivalent to ``load_route(LGRoute(...))`` per (route,
        prefix) pair, origin by origin, but the LGRoutes only
        materialise when a prefix is actually queried.
        """
        if not len(view):
            return
        if self._view is not None or self._routes:
            raise ValueError(f"{self.name} already holds a view")
        self._view = view
        self.version += 1

    def _view_for(self, prefix: Prefix) -> List[LGRoute]:
        """The route list for *prefix*."""
        routes = self._routes.get(prefix)
        if routes is None and self._view is not None:
            routes = self._routes[prefix] = _lg_routes(
                prefix, self._view.routes_for(prefix))
        return routes or []

    def load_route_server_exports(self, route_server: RouteServer) -> int:
        """Load everything *route_server* exports to this AS.

        Returns the number of routes loaded.  The communities attached by
        the announcing members are preserved, which is what makes member
        LGs a usable third-party source of RS communities (section 4.1).
        """
        if not route_server.is_member(self.asn):
            return 0
        count = 0
        for entry in route_server.exports_to(self.asn):
            self.load_route(LGRoute(
                prefix=entry.prefix,
                as_path=entry.as_path,
                communities=entry.communities,
                learned_from=entry.member_asn,
            ))
            count += 1
        return count

    # -- queries ----------------------------------------------------------------------

    def prefixes(self) -> List[Prefix]:
        """Prefixes present in the LG's view (not a counted query)."""
        if self._view is None:
            return sorted(self._routes)
        return self._view.prefix_list()

    def show_ip_bgp_prefix(self, prefix: Prefix) -> List[LGRoute]:
        """``show ip bgp <prefix>``: the paths this AS holds for *prefix*.

        Best-path-only LGs return at most one route, which is why links on
        less-preferred paths cannot be confirmed through them.
        """
        self.counter.record("show ip bgp prefix")
        routes = self._view_for(prefix)
        if not routes:
            return []
        ordered = sorted(routes, key=lambda r: (not r.best, len(r.as_path)))
        if self.display_all_paths:
            return list(ordered)
        return [ordered[0]]

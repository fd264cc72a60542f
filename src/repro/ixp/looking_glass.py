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
be reproduced exactly, and an optional rate limit models the 1 query /
10 s constraint the authors worked under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.bgp.communities import Community
from repro.bgp.prefix import Prefix
from repro.ixp.route_server import RouteServer


class RateLimitExceeded(RuntimeError):
    """Raised when a looking glass refuses a query due to rate limiting."""


@dataclass(frozen=True)
class LGRoute:
    """One route displayed by a looking glass."""

    prefix: Prefix
    as_path: Tuple[int, ...]
    communities: FrozenSet[Community] = frozenset()
    best: bool = False
    learned_from: Optional[int] = None

    @property
    def origin_asn(self) -> int:
        """Origin AS of the displayed route."""
        return self.as_path[-1] if self.as_path else -1


class LGQueryCounter:
    """Counts queries issued against a looking glass, by command."""

    def __init__(self, max_queries: Optional[int] = None) -> None:
        self.max_queries = max_queries
        self.counts: Dict[str, int] = {}

    def record(self, command: str) -> None:
        """Record one query; raises :class:`RateLimitExceeded` beyond the cap."""
        if self.max_queries is not None and self.total >= self.max_queries:
            raise RateLimitExceeded(
                f"query budget of {self.max_queries} exhausted")
        self.counts[command] = self.counts.get(command, 0) + 1

    @property
    def total(self) -> int:
        """Total number of queries issued."""
        return sum(self.counts.values())

    def reset(self) -> None:
        """Forget all recorded queries."""
        self.counts.clear()

    def estimated_duration(self, seconds_per_query: float = 10.0) -> float:
        """Wall-clock time at the given query rate limit (section 4.3 uses
        one query per 10 seconds)."""
        return self.total * seconds_per_query


def _lg_routes(prefix: Prefix, routes) -> List[LGRoute]:
    """LGRoutes for *prefix* from ``(as_path, communities, best,
    learned_from)`` tuples."""
    return [LGRoute(prefix=prefix, as_path=as_path, communities=communities,
                    best=best, learned_from=learned_from)
            for as_path, communities, best, learned_from in routes]


class RouteServerLookingGlass:
    """LG interface in front of an IXP route server."""

    def __init__(self, route_server: RouteServer,
                 max_queries: Optional[int] = None) -> None:
        self.route_server = route_server
        self.counter = LGQueryCounter(max_queries)

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
    The view is loaded by the scenario layer from the route-server exports
    towards the AS and/or from the propagation engine's result for the AS.
    """

    def __init__(
        self,
        asn: int,
        display_all_paths: bool = True,
        max_queries: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        self.asn = asn
        self.display_all_paths = display_all_paths
        self.name = name or f"AS{asn}-lg"
        self.counter = LGQueryCounter(max_queries)
        self._routes: Dict[Prefix, List[LGRoute]] = {}
        #: a bulk-loaded view awaiting materialisation (an
        #: :class:`~repro.runtime.fragments.ObserverView`): routes for a
        #: prefix materialise on the first query for that prefix, so
        #: loading a large validation LG costs one slice of index
        #: arrays, not one LGRoute per (route, prefix) pair.
        self._view = None
        self._view_cache: Dict[Prefix, List[LGRoute]] = {}
        #: monotonic mutation counter, bumped whenever the view changes;
        #: caches keyed on this LG's view validate against it.
        self.version = 0

    # -- view loading ----------------------------------------------------------------

    def load_route(self, route: LGRoute) -> None:
        """Add one route to the LG's view."""
        if self._view is not None:
            self._flush_view()
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
        if self._view is not None:
            self._flush_view()
        self._view = view
        self._view_cache.clear()
        self.version += 1

    def _flush_view(self) -> None:
        """Materialise the pending bulk view into the eager view.

        Called when eager-view operations (``load_route``,
        ``mark_best_paths``) interleave with a bulk load; per-prefix
        route order is exactly the order route-by-route loading would
        have produced.
        """
        view, self._view = self._view, None
        self._view_cache.clear()
        for prefix, routes in view.expand():
            self._routes.setdefault(prefix, []).extend(
                _lg_routes(prefix, routes))

    def _view_for(self, prefix: Prefix) -> List[LGRoute]:
        """The full (eager + pending bulk view) route list for *prefix*."""
        if self._view is None:
            return self._routes.get(prefix, [])
        cached = self._view_cache.get(prefix)
        if cached is None:
            cached = self._view_cache[prefix] = \
                self._routes.get(prefix, []) + \
                _lg_routes(prefix, self._view.routes_for(prefix))
        return cached

    def load_routes(self, routes: Iterable[LGRoute]) -> None:
        """Add many routes to the LG's view."""
        for route in routes:
            self.load_route(route)

    def load_route_server_exports(self, route_server: RouteServer,
                                  best: bool = False) -> int:
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
                best=best,
                learned_from=entry.member_asn,
            ))
            count += 1
        return count

    def mark_best_paths(self) -> None:
        """Recompute the best flag: the shortest path (then lowest first
        hop) per prefix is marked best, everything else non-best."""
        if self._view is not None:
            self._flush_view()
        for prefix, routes in self._routes.items():
            if not routes:
                continue
            ordered = sorted(
                routes,
                key=lambda r: (0 if r.best else 1, len(r.as_path),
                               r.as_path[0] if r.as_path else -1))
            chosen = ordered[0]
            self._routes[prefix] = [
                LGRoute(prefix=r.prefix, as_path=r.as_path,
                        communities=r.communities, best=(r is chosen),
                        learned_from=r.learned_from)
                for r in routes
            ]
        self.version += 1

    # -- queries ----------------------------------------------------------------------

    def prefixes(self) -> List[Prefix]:
        """Prefixes present in the LG's view (not a counted query)."""
        if self._view is None:
            return sorted(self._routes)
        if not self._routes:
            return self._view.prefix_list()
        return sorted(set(self._routes).union(self._view.prefix_list()))

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

    def visible_links(self, prefix: Prefix) -> List[Tuple[int, int]]:
        """AS links visible in the paths returned for *prefix*."""
        links = []
        for route in self.show_ip_bgp_prefix(prefix):
            path = route.as_path
            for left, right in zip(path, path[1:]):
                if left != right:
                    links.append((min(left, right), max(left, right)))
        return links

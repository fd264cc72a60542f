"""The pipeline context: one object owning the shared runtime state.

A :class:`PipelineContext` is created once per topology (usually via
:meth:`from_graph`) and threaded through the whole measurement pipeline:
the propagation engine reads its CSR index and stores, collectors and
looking glasses read propagation fragments memoised per origin, and the
inference layer reuses its member bitset indices and prefix interner.
Everything downstream of the context speaks integer ids and only
converts back to ASNs/prefixes/communities at result boundaries.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.runtime.bitset import BitsetIndex
from repro.runtime.compiled import PropagationPlan
from repro.runtime.csr import CSRIndex
from repro.runtime.frontier import FrontierPropagator
from repro.runtime.interning import Interner
from repro.runtime.stores import PathStore


#: Bounded size of the context-level inference plane cache.
_MAX_INFERENCE_PLANE_ENTRIES = 8

_MISS = object()

#: Rough per-route footprint charged for fragments without an ``nbytes``
#: (eager object lists): slots object + path tuple, order of magnitude.
_ROUTE_OBJECT_BYTES = 96


def _fragments_nbytes(fragments) -> int:
    """Approximate byte footprint of one cached (best, offered) pair.

    Columnar :class:`~repro.runtime.fragments.RouteBlock`s report their
    exact array footprint via ``nbytes``; object lists are charged a
    flat per-route estimate.
    """
    total = 0
    for part in fragments:
        nbytes = getattr(part, "nbytes", None)
        total += int(nbytes) if nbytes is not None \
            else _ROUTE_OBJECT_BYTES * len(part)
    return total


class RouteCache:
    """Memoised per-origin route fragments, with accounting and an
    optional byte-bounded LRU eviction policy.

    Dict-shaped (``get``/``[]=``/``len``/``in``/``clear``) so the
    engine's memoisation protocol is unchanged, but every entry is
    counted: ``entries``/``bytes`` give the current footprint and
    ``hits``/``misses`` count :meth:`get` outcomes across the cache's
    lifetime (``clear`` resets the footprint, not the counters).

    With ``max_bytes`` set, the cache evicts least-recently-used
    entries after every insertion until the accounted footprint fits
    the budget (``evictions`` counts the casualties).  Recency is the
    dict's insertion order: a :meth:`get` hit re-inserts the entry at
    the back, so long daemon runs cycling through many scenarios keep
    the fragments they actually serve and shed the rest.  The newest
    entry is never evicted — a single fragment pair larger than the
    whole budget stays resident until the next insertion displaces it
    (dropping the value just stored would break the engine's
    memoisation contract).  ``entries``/``bytes`` stay exact under
    eviction: every eviction subtracts exactly the bytes its insertion
    added.
    """

    __slots__ = ("_entries", "bytes", "hits", "misses", "max_bytes",
                 "evictions")

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self._entries: Dict[Tuple, Tuple] = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.max_bytes = max_bytes
        self.evictions = 0

    def get(self, key, default=None):
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return default
        self.hits += 1
        if self.max_bytes is not None:
            # LRU touch: move the hit to the back of insertion order.
            del self._entries[key]
            self._entries[key] = value
        return value

    def __setitem__(self, key, value) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= _fragments_nbytes(old)
        self._entries[key] = value
        self.bytes += _fragments_nbytes(value)
        self._evict()

    def set_max_bytes(self, max_bytes: Optional[int]) -> None:
        """(Re)configure the byte budget; shrinking evicts immediately."""
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._evict()

    def _evict(self) -> None:
        if self.max_bytes is None:
            return
        entries = self._entries
        while self.bytes > self.max_bytes and len(entries) > 1:
            oldest = next(iter(entries))
            value = entries.pop(oldest)
            self.bytes -= _fragments_nbytes(value)
            self.evictions += 1

    def __getitem__(self, key):
        return self._entries[key]

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class PipelineContext:
    """Shared interners, adjacency index and memoised propagation."""

    def __init__(self, index: CSRIndex,
                 epoch_provider: Optional[Callable[[], Hashable]] = None,
                 route_cache_max_bytes: Optional[int] = None,
                 ) -> None:
        #: the CSR adjacency index (owns the ASN interner and bag store).
        self.index = index
        #: ASN interner (node ids ascend with ASN value).
        self.asns = index.asns
        #: community-bag store shared with the index's edge bags.
        self.bags = index.bags
        #: transient path store reused across origins.
        self.paths = PathStore()
        #: prefix id space for layers that want dense prefix ids.
        self.prefixes: Interner = Interner()
        self._propagator: Optional[FrontierPropagator] = None
        self._plan = None
        #: (origin, origin bag, record signature, epoch) -> recorded
        #: fragments, with entry/byte/hit/miss accounting and an
        #: optional LRU byte budget (long-lived daemon processes bound
        #: it so route fragments cannot grow without limit).
        self._route_cache = RouteCache(max_bytes=route_cache_max_bytes)
        #: mutation-epoch provider: a callable returning a hashable
        #: snapshot of the external mutation counters this context's
        #: routes depend on (graph version, route-server versions ...).
        #: The engine salts the epoch into every route-cache key, so a
        #: post-mutation lookup can never return a stale block.
        self._epoch_provider = epoch_provider
        self._member_indices: Dict[Hashable, Tuple[frozenset, BitsetIndex]] = {}
        #: collected inference observation planes: (PlaneCacheKey, planes)
        #: pairs, newest last (see repro.core.planes.PlaneCacheKey).
        self._inference_planes: list = []

    # -- construction --------------------------------------------------------

    @classmethod
    def from_graph(cls, graph, rs_community_provider=None,
                   ) -> "PipelineContext":
        """Build a context from an :class:`~repro.topology.as_graph.ASGraph`."""
        return cls(graph.build_index(
            rs_community_provider=rs_community_provider))

    # -- propagation ---------------------------------------------------------

    @property
    def propagator(self) -> FrontierPropagator:
        """The frontier propagator bound to this context's index."""
        if self._propagator is None:
            self._propagator = FrontierPropagator(
                self.index, self.paths, self.bags)
        return self._propagator

    @property
    def plan(self):
        """The (lazily compiled, cached)
        :class:`~repro.runtime.compiled.PropagationPlan` of this
        context's index — the multi-origin kernel's per-topology
        schedule, reused across every batch and engine."""
        if self._plan is None:
            self._plan = PropagationPlan(self.index)
        return self._plan

    def engine(self, record_at=None, record_alternatives_at=None):
        """A :class:`~repro.bgp.propagation.PropagationEngine` sharing
        this context's index, stores and memoised routes."""
        from repro.bgp.propagation import PropagationEngine
        return PropagationEngine(
            record_at=record_at,
            record_alternatives_at=record_alternatives_at,
            context=self,
        )

    @property
    def route_cache(self) -> RouteCache:
        """Memoised per-origin recorded route fragments (with
        entry/byte accounting, see :class:`RouteCache`)."""
        return self._route_cache

    def __getstate__(self):
        # A bound epoch provider closes over the live graph/route-server
        # objects whose counters it snapshots; a pickle roundtrip severs
        # that link (the restored context pairs with *restored* copies),
        # so the provider is dropped and the context reverts to the
        # constant epoch until a caller rebinds one.
        state = self.__dict__.copy()
        state["_epoch_provider"] = None
        return state

    def bind_epoch(self, provider: Callable[[], Hashable]) -> None:
        """Bind the mutation counters of the state this context's index
        was built from (see :meth:`mutation_epoch`)."""
        self._epoch_provider = provider

    def mutation_epoch(self) -> Hashable:
        """The current mutation epoch salted into route-cache keys.

        Constant ``0`` when no provider is bound (a context over
        immutable inputs); otherwise whatever hashable snapshot the
        bound provider reports — e.g. ``(graph.version, route-server
        versions)`` as bound by the propagation stage.  Any bump of an
        underlying counter changes the epoch, so fragments memoised
        before a mutation are unreachable afterwards.
        """
        return self._epoch_provider() if self._epoch_provider is not None \
            else 0

    # -- inference support ---------------------------------------------------

    def cached_inference_planes(self, key):
        """The stored planes whose cache key ``matches`` *key* (or None).

        Keys are :class:`repro.core.planes.PlaneCacheKey`-shaped (duck
        typed: anything with a ``matches`` method); holding the keyed
        input objects strongly in the entry makes the identity
        comparisons inside ``matches`` safe against id reuse.
        """
        for stored_key, value in self._inference_planes:
            if stored_key.matches(key):
                return value
        return None

    def store_inference_planes(self, key, value) -> None:
        """Remember the observation planes computed under *key*."""
        self._inference_planes.append((key, value))
        if len(self._inference_planes) > _MAX_INFERENCE_PLANE_ENTRIES:
            self._inference_planes.pop(0)

    def member_index(self, key: Hashable, members: Iterable[int]) -> BitsetIndex:
        """A (cached) :class:`BitsetIndex` over *members* under *key*.

        The key is usually the IXP name; the cached index is rebuilt when
        the member population changes (validated via an O(n) frozenset
        comparison, not a re-sort).
        """
        population = frozenset(members)
        cached = self._member_indices.get(key)
        if cached is not None and cached[0] == population:
            return cached[1]
        index = BitsetIndex(population)
        self._member_indices[key] = (population, index)
        return index

    # -- introspection -------------------------------------------------------

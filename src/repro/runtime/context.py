"""The pipeline context: one object owning the shared runtime state.

A :class:`PipelineContext` is created once per topology (usually via
:meth:`from_graph`) and threaded through the whole measurement pipeline:
the propagation engine reads its CSR index, stores and compiled plan,
and the inference layer reuses its member bitset indices, prefix
interner and observation planes.  The index never changes after
construction: a mutated topology gets a new context.
Everything downstream of the context speaks integer ids and only
converts back to ASNs/prefixes/communities at result boundaries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.runtime.bitset import BitsetIndex
from repro.runtime.compiled import PropagationPlan
from repro.runtime.csr import CSRIndex
from repro.runtime.frontier import FrontierPropagator
from repro.runtime.interning import Interner
from repro.runtime.stores import PathStore


#: Bounded size of the context-level inference plane cache.
_MAX_INFERENCE_PLANE_ENTRIES = 8


class PipelineContext:
    """Shared interners, adjacency index and propagation state."""

    def __init__(self, index: CSRIndex) -> None:
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
        this context's index, stores and compiled plan."""
        from repro.bgp.propagation import PropagationEngine
        return PropagationEngine(
            record_at=record_at,
            record_alternatives_at=record_alternatives_at,
            context=self,
        )

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

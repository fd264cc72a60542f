"""The pipeline context: one object owning the shared runtime state.

A :class:`PipelineContext` is created once per topology (usually via
:meth:`from_graph`) and holds propagation state only: the propagation
engine reads its CSR index, stores and compiled plan.  The index never
changes after construction: a mutated topology gets a new context.
Everything downstream of the context speaks integer ids and only
converts back to ASNs/prefixes/communities at result boundaries.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.compiled import PropagationPlan
from repro.runtime.csr import CSRIndex
from repro.runtime.frontier import FrontierPropagator
from repro.runtime.stores import PathStore


class PipelineContext:
    """One topology's adjacency index and propagation state: the CSR
    index with its ASN interner and community-bag store, the frontier
    propagator's path store and the compiled kernel's plan."""

    def __init__(self, index: CSRIndex) -> None:
        #: the CSR adjacency index (owns the ASN interner and bag store).
        self.index = index
        #: ASN interner (node ids ascend with ASN value).
        self.asns = index.asns
        #: community-bag store shared with the index's edge bags.
        self.bags = index.bags
        #: transient path store reused across origins.
        self.paths = PathStore()
        self._propagator: Optional[FrontierPropagator] = None
        self._plan = None

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

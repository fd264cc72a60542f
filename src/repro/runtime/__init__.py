"""Shared runtime substrate: interning, CSR adjacency index, context.

Every layer of the reproduction (bgp -> topology -> collectors/ixp ->
core -> scenarios) works against the primitives in this package instead
of materialising per-route objects:

* :class:`Interner` — dense integer ids for ASNs and prefixes;
* :class:`PathStore` / :class:`CommunityBagStore` — structure-shared AS
  paths (cons cells) and memoised community-set unions, so propagation
  never copies a path or a community bag per AS;
* :class:`CSRIndex` — a compressed-sparse-row adjacency index built once
  per topology, pre-partitioned into the three valley-free phases;
* :class:`FrontierPropagator` / :class:`CompiledPropagator` — the two
  propagation kernels the :class:`~repro.bgp.propagation.
  PropagationEngine` picks between by batch size: the per-origin
  frontier BFS, and the multi-origin kernel that replays a
  :class:`PropagationPlan` (the CSR index compiled once per topology)
  as level-synchronous numpy sweeps, bit-identical to the frontier;
* :class:`BitsetIndex` — member-population bitmasks used by the
  reachability/link-inference layer;
* :class:`PipelineContext` — owns the interners, the index, the stores
  and the compiled plan, and is threaded through the whole pipeline;
  the disk cache pickles it with the propagation artifact.
"""

from repro.runtime.bitset import BitsetIndex
from repro.runtime.compiled import (
    BatchState,
    CompiledPropagator,
    PropagationPlan,
)
from repro.runtime.context import PipelineContext
from repro.runtime.csr import CSRIndex
from repro.runtime.reachmatrix import ReachabilityMatrix, ReachabilityPlane
from repro.runtime.frontier import FrontierPropagator, OriginState
from repro.runtime.interning import Interner
from repro.runtime.stores import CommunityBagStore, PathStore

__all__ = [
    "BatchState",
    "BitsetIndex",
    "CommunityBagStore",
    "CompiledPropagator",
    "CSRIndex",
    "FrontierPropagator",
    "Interner",
    "OriginState",
    "PathStore",
    "PipelineContext",
    "PropagationPlan",
    "ReachabilityMatrix",
    "ReachabilityPlane",
]

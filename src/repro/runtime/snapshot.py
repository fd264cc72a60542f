"""Compact, picklable snapshots of a :class:`PipelineContext`.

Sharded stages ship the runtime substrate to worker processes once per
pool, not once per task.  A :class:`ContextSnapshot` flattens the parts
of the context that are expensive to rebuild — the ASN interner and the
three CSR phase-edge blocks — into ``array('q')`` buffers (pickled as
raw machine words, far smaller and faster than lists of Python ints)
plus the interned community bags.  Workers call :func:`restore_context`
from their pool initializer and reconstruct a fully functional context:
same node ids, same bag ids, same deterministic propagation.

Transient state (path store cells, memoised routes, member bitset
indices) is deliberately *not* captured: it is derived data that each
worker recomputes for the origins it is assigned.

The return trip is columnar: workers ship their recorded fragments back
as :class:`~repro.runtime.fragments.RouteBlock`s, whose pickled form is
a handful of numpy arrays plus a block-local community-bag table.  The
bag table matters for correctness, not just size — bag *ids* are
assigned in interning order, which differs between parent and worker
(each worker interns only the bags its origins touch), so blocks never
carry store-level bag ids across the process boundary.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Hashable, Tuple

from repro.runtime.csr import CSRIndex, PhaseEdges
from repro.runtime.interning import Interner
from repro.runtime.stores import CommunityBagStore

if TYPE_CHECKING:
    from repro.runtime.context import PipelineContext

#: One CSR phase as five parallel machine-word arrays
#: (indptr, targets, rels, bags, vias).
PhaseArrays = Tuple[array, array, array, array, array]


@dataclass(frozen=True)
class ContextSnapshot:
    """Everything needed to rebuild a :class:`PipelineContext` elsewhere."""

    node_asns: array                       #: node id -> ASN, ascending
    bag_values: Tuple[FrozenSet[Hashable], ...]  #: bag id -> community set
    customer_phase: PhaseArrays
    peer_phase: PhaseArrays
    provider_phase: PhaseArrays
    num_edges: int
    #: the parent's compiled :class:`~repro.runtime.compiled
    #: .PropagationPlan`, when one was built or asked for — numpy arrays
    #: pickle as raw buffers, so shipping the plan saves every worker
    #: the per-process schedule compilation (None otherwise: restored
    #: contexts then compile it lazily on first use).
    plan: object = None

    @property
    def num_nodes(self) -> int:
        return len(self.node_asns)


def _pack_phase(phase: PhaseEdges) -> PhaseArrays:
    return (array("q", phase.indptr), array("q", phase.targets),
            array("q", phase.rels), array("q", phase.bags),
            array("q", phase.vias))


def _unpack_phase(packed: PhaseArrays) -> PhaseEdges:
    indptr, targets, rels, bags, vias = packed
    return PhaseEdges(indptr=list(indptr), targets=list(targets),
                      rels=list(rels), bags=list(bags), vias=list(vias))


def snapshot_context(context: "PipelineContext",
                     include_plan: bool = False) -> ContextSnapshot:
    """Capture the context's index in compact, picklable form.

    With *include_plan* the context's
    :class:`~repro.runtime.compiled.PropagationPlan` is built and
    shipped alongside the index, so restored worker contexts replay it
    instead of recompiling the schedule; otherwise a plan is shipped
    only when the context already built one.
    """
    index = context.index
    bag_values = tuple(index.bags._values)
    plan = context.plan if include_plan else context._plan
    return ContextSnapshot(
        node_asns=array("q", index.node_asns),
        bag_values=bag_values,
        customer_phase=_pack_phase(index.customer_edges),
        peer_phase=_pack_phase(index.peer_edges),
        provider_phase=_pack_phase(index.provider_edges),
        num_edges=index.num_edges,
        plan=plan,
    )


def restore_context(snapshot: ContextSnapshot) -> "PipelineContext":
    """Rebuild a fresh :class:`PipelineContext` from *snapshot*.

    Node and bag ids are preserved exactly (values are re-interned in id
    order), so path tie-breaking and community-bag references behave
    identically to the originating context.
    """
    from repro.runtime.context import PipelineContext

    asns = Interner(list(snapshot.node_asns))
    bags = CommunityBagStore()
    for bag in snapshot.bag_values:
        bags.intern(bag)
    index = CSRIndex(
        asns=asns,
        bags=bags,
        customer_edges=_unpack_phase(snapshot.customer_phase),
        peer_edges=_unpack_phase(snapshot.peer_phase),
        provider_edges=_unpack_phase(snapshot.provider_phase),
        num_edges=snapshot.num_edges,
    )
    context = PipelineContext(index)
    if snapshot.plan is not None:
        # Seed the lazily built schedule: ids were preserved exactly,
        # so the shipped plan is the one this context would compile.
        context._plan = snapshot.plan
    return context


def snapshot_sizes(snapshot: ContextSnapshot) -> dict:
    """Rough per-component byte sizes (introspection / benchmarks)."""
    def phase_bytes(packed: PhaseArrays) -> int:
        return sum(arr.itemsize * len(arr) for arr in packed)

    return {
        "nodes": len(snapshot.node_asns),
        "node_bytes": snapshot.node_asns.itemsize * len(snapshot.node_asns),
        "bags": len(snapshot.bag_values),
        "customer_phase_bytes": phase_bytes(snapshot.customer_phase),
        "peer_phase_bytes": phase_bytes(snapshot.peer_phase),
        "provider_phase_bytes": phase_bytes(snapshot.provider_phase),
        "plan_shipped": snapshot.plan is not None,
    }

"""Multi-process sharding of the embarrassingly parallel stages.

The propagation stage is origin-parallel: every origin's propagation is
independent, and the recorded route fragments cross the worker boundary
columnar — :class:`~repro.runtime.fragments.RouteBlock`s pickle as a
handful of numpy arrays per origin instead of thousands of route
tuples, so IPC cost scales with array bytes, not route count.
:func:`sharded_propagate` ships a compact
:class:`~repro.runtime.snapshot.ContextSnapshot` to each worker once
(via the pool initializer), fans contiguous **origin batches** out with
``ProcessPoolExecutor.map`` (which preserves order), and merges the
fragments back **in the original origin order** — so the assembled
:class:`~repro.bgp.propagation.PropagationResult` is bit-identical to a
single-process run, including dict insertion orders.

Each shard is a batch, not a single origin: every worker receives
exactly one contiguous chunk and resolves it through
:meth:`~repro.bgp.propagation.PropagationEngine.batch_fragments`, so a
wide chunk runs the multi-origin kernel (a few vectorized sweeps
instead of per-origin walks).  The parent's
:class:`~repro.runtime.compiled.PropagationPlan` is compiled once and
shipped inside the snapshot, so P workers each replay the same schedule
and sharding multiplies with batching instead of competing for batch
width.

Worker-side state is reconstructed, never inherited: the initializer
rebuilds a fresh :class:`PipelineContext` from the snapshot, which keeps
the protocol identical under fork and spawn start methods.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.propagation import (
    OriginSpec,
    PropagatedRoute,
    PropagationResult,
)
from repro.runtime.context import PipelineContext
from repro.runtime.snapshot import ContextSnapshot, restore_context, snapshot_context

#: One origin's recorded fragments: (best routes, offered routes) as
#: columnar RouteBlocks.
Fragments = Tuple[Sequence[PropagatedRoute], Sequence[PropagatedRoute]]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count knob: None/0/1 mean single-process."""
    if workers is None:
        return 1
    if workers < 0:
        return max(1, (os.cpu_count() or 1))
    return max(1, workers)


def chunked(items: Sequence, num_chunks: int) -> List[List]:
    """Split *items* into at most *num_chunks* contiguous, order-preserving
    chunks of near-equal size (no empty chunks, unless *items* is empty)."""
    items = list(items)
    num_chunks = max(1, min(num_chunks, len(items)))
    base, extra = divmod(len(items), num_chunks)
    chunks: List[List] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


# -- worker side --------------------------------------------------------------

_WORKER_ENGINE = None


def _init_propagation_worker(
    snapshot: ContextSnapshot,
    record_at: Optional[FrozenSet[int]],
    record_alternatives_at: FrozenSet[int],
) -> None:
    """Pool initializer: rebuild the context and bind one engine."""
    global _WORKER_ENGINE
    context = restore_context(snapshot)
    _WORKER_ENGINE = context.engine(
        record_at=record_at,
        record_alternatives_at=record_alternatives_at,
    )


def _propagate_chunk(specs: List[OriginSpec]) -> List[Fragments]:
    """Compute the recorded fragments for one origin batch."""
    engine = _WORKER_ENGINE
    assert engine is not None, "propagation worker not initialised"
    return engine.batch_fragments(specs)


# -- parent side ---------------------------------------------------------------

def sharded_fragments(
    context: PipelineContext,
    origins: Sequence[OriginSpec],
    record_at: Optional[FrozenSet[int]],
    record_alternatives_at: FrozenSet[int],
    workers: Optional[int],
) -> List[Fragments]:
    """Recorded fragments for *origins*, in origin order, sharded
    across *workers* processes.

    The raw fragment plane under :func:`sharded_propagate`, also used by
    the delta plane (:mod:`repro.runtime.delta`) to recompute just the
    affected origins.  Falls back to the in-process engine for
    ``workers <= 1`` (or a single origin); the sharded path yields the
    exact fragment sequence of the fallback.
    """
    origins = list(origins)
    worker_count = resolve_workers(workers)

    if worker_count <= 1 or len(origins) < 2:
        engine = context.engine(record_at=record_at,
                                record_alternatives_at=record_alternatives_at)
        return engine.batch_fragments(origins)

    # Workers replay the parent's compiled plan: build it once here and
    # ship it in the snapshot instead of once per worker.
    snapshot = snapshot_context(context, include_plan=True)
    chunks = chunked(origins, worker_count)
    fragments: List[Fragments] = []
    with ProcessPoolExecutor(
        max_workers=min(worker_count, len(chunks)),
        initializer=_init_propagation_worker,
        initargs=(snapshot, record_at, record_alternatives_at),
    ) as pool:
        for chunk_fragments in pool.map(_propagate_chunk, chunks):
            fragments.extend(chunk_fragments)
    return fragments


def sharded_propagate(
    context: PipelineContext,
    origins: Iterable[OriginSpec],
    record_at: Optional[Iterable[int]],
    record_alternatives_at: Iterable[int],
    workers: Optional[int],
) -> PropagationResult:
    """Propagate *origins*, sharded across *workers* processes.

    Falls back to the in-process engine for ``workers <= 1`` (or a
    single origin).  The sharded path produces a result bit-identical to
    the fallback: fragments are merged in origin order, replicating the
    single-process recording sequence exactly.
    """
    origins = list(origins)
    worker_count = resolve_workers(workers)
    record = frozenset(record_at) if record_at is not None else None
    record_alt = frozenset(record_alternatives_at or ())

    if worker_count <= 1 or len(origins) < 2:
        # In-process fast path keeps PropagationEngine.propagate's
        # origin-spec bookkeeping (and its isolated-origin handling).
        engine = context.engine(record_at=record,
                                record_alternatives_at=record_alt)
        return engine.propagate(origins)

    fragments = sharded_fragments(context, origins, record, record_alt,
                                  workers)
    result = PropagationResult()
    for spec, (best, offered) in zip(origins, fragments):
        # Recording in origin order reproduces the single-process
        # result exactly.
        result._record(spec, best, offered)
    return result

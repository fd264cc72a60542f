"""Span recorder for the traced benchmark run.

The recorder wraps public callables of the program *from outside*: each
:class:`Layer` names one or more ``"module:Qualified.name"`` targets, and
:meth:`SpanRecorder.install` replaces every one of them with a timing
wrapper wherever a loaded ``repro.*`` module holds it, so
``from x import f`` aliases are covered too.  Nothing under ``src/``
knows it is being traced.

Each call of a wrapped target is one span (layer name, start, end,
parent span, op id).  A layer's *self* time is its span's duration minus
the time covered by its direct child spans, so self times of all layers
plus the root span's own remainder (``unattributed``) add up to the op's
wall time exactly.  Spans stay in memory; :meth:`SpanRecorder.spans_json`
returns them for writing when the benchmark ends.

A target that no longer exists (a later change deleted or renamed it) is
skipped and reported by :meth:`SpanRecorder.missing_targets`; its layer
then simply reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: Counts callback: ``(args, kwargs, result, open layers) -> {count name:
#: increment}``; *open layers* are the names of the enclosing spans.
CountFn = Callable[[tuple, dict, object, List[str]], Dict[str, float]]


@dataclass(frozen=True)
class Layer:
    """One traced layer: its targets and the workloads it works on."""

    name: str
    #: ``"module:Qualified.name"`` callables whose calls are this layer.
    targets: Tuple[str, ...]
    #: Workloads on which the layer does work (``--smoke`` asserts that
    #: it fires on each of them).
    workloads: Tuple[str, ...]
    #: Per-op counts taken from the outermost call's arguments/result.
    counts: Optional[CountFn] = None
    #: Unit of the layer's time rows: "ms" per op, or "us" per request.
    time_unit: str = "ms"


def _origins(args, kwargs, result, enclosing):
    # FrontierPropagator.run(node, ...) sweeps one origin; run_batch
    # receives the batch's origin node list first.
    first = args[1] if len(args) > 1 else None
    return {"bgp.origins": len(first) if isinstance(first, (list, tuple))
            else 1}


def _block_rows(args, kwargs, result, enclosing):
    return {"bgp.block_rows": sum(len(best) + len(offered)
                                  for best, offered in result)}


def _entries(args, kwargs, result, enclosing):
    return {"collectors.entries": len(result)}


def _artifact_bytes(args, kwargs, result, enclosing):
    return {"service.artifact_bytes": sum(
        path.stat().st_size for path in result.iterdir() if path.is_file())}


def _rebuilds(args, kwargs, result, enclosing):
    # A context built while an event is applied is the CSR splice's
    # fallback to a from-scratch index rebuild.
    return {"runtime.csr_rebuilds": int("scenarios.replay" in enclosing)}


def _queries(args, kwargs, result, enclosing):
    # Interpretation targets return observation lists, not collections.
    return {"core.active.queries": getattr(result, "total_queries", 0)}


def _inferred_links(args, kwargs, result, enclosing):
    # from_result(cls, result, ...) counts the links it packs; the
    # all_links() view of a matrix counts nothing more.
    inference = args[1] if len(args) > 1 else kwargs.get("result")
    if inference is None:
        return {}
    return {"runtime.reachmatrix.links": sum(
        len(ixp.links) for ixp in inference.per_ixp.values())}


def _replay_event(args, kwargs, result, enclosing):
    return {"runtime.delta.reused": result.reused,
            "runtime.delta.origins": result.total,
            "runtime.delta.affected": result.affected}


BUILD = ("build-bench",)
INFER = ("build-bench", "ablation-growth")
REPLAY = ("replay-events",)
QUERY = ("query-mix",)

#: Every traced layer, in pipeline order.  Which end-to-end metric each
#: layer should move, and on which workload, is the table in README.md.
LAYERS: Tuple[Layer, ...] = (
    Layer("pipeline.stage", ("repro.pipeline.run:ScenarioRun.artifact",),
          BUILD),
    Layer("topology.generate",
          ("repro.topology.generator:InternetGenerator.generate",),
          BUILD),
    Layer("ixp.build", ("repro.scenarios.base:stage_ixps",),
          BUILD),
    Layer("runtime.csr",
          ("repro.runtime.context:PipelineContext.from_graph",),
          BUILD + REPLAY, counts=_rebuilds),
    Layer("bgp.sweep",
          ("repro.runtime.frontier:FrontierPropagator.run",
           "repro.runtime.batched:BatchedPropagator.run_batch",
           "repro.runtime.compiled:CompiledPropagator.run_batch"),
          BUILD + REPLAY, counts=_origins),
    Layer("bgp.materialise",
          ("repro.bgp.propagation:PropagationEngine.batch_fragments",),
          BUILD + REPLAY, counts=_block_rows),
    Layer("runtime.observation_index",
          ("repro.runtime.fragments:ObservationIndex.__init__",),
          BUILD),
    Layer("collectors.collect",
          ("repro.collectors.archive:CollectorArchive.collect",),
          BUILD),
    Layer("collectors.stable",
          ("repro.collectors.archive:CollectorArchive.clean_stable_entries",
           "repro.collectors.archive:CollectorArchive.stable_entries"),
          INFER, counts=_entries),
    Layer("ixp.looking_glass", ("repro.scenarios.base:stage_viewpoints",),
          BUILD),
    Layer("registries.build", ("repro.scenarios.base:stage_registries",),
          BUILD),
    Layer("core.connectivity",
          ("repro.scenarios.base:Scenario.discover_connectivity",),
          INFER),
    Layer("core.engine",
          ("repro.scenarios.base:Scenario.make_engine",
           "repro.core.engine:MLPInferenceEngine.run"),
          INFER),
    Layer("core.passive",
          ("repro.core.passive:PassiveInference.extract",
           "repro.core.passive:PassiveInference.policy_observations",
           "repro.core.planes:extract_passive_planes"),
          INFER),
    Layer("core.active",
          ("repro.core.active:ActiveInference.collect",
           "repro.core.active:collect_from_third_party_lg",
           "repro.core.active:interpret_raw_observations",
           "repro.core.planes:rows_from_raw_observations"),
          INFER, counts=_queries),
    Layer("core.links",
          ("repro.core.reachability:merge_observations",
           "repro.core.reachability:infer_links",
           "repro.core.planes:merge_rows",
           "repro.core.planes:build_reachability_plane"),
          INFER),
    Layer("runtime.reachmatrix",
          ("repro.runtime.reachmatrix:ReachabilityMatrix.from_result",
           "repro.runtime.reachmatrix:ReachabilityMatrix.all_links"),
          INFER, counts=_inferred_links),
    Layer("core.table2",
          ("repro.core.engine:MLPInferenceResult.table2",),
          ("ablation-growth",)),
    Layer("service.save", ("repro.service.artifact:save_matrix",),
          BUILD, counts=_artifact_bytes),
    Layer("service.load", ("repro.service.artifact:load_matrix",),
          BUILD),
    Layer("scenarios.replay_init",
          ("repro.scenarios.events:TimelineReplay.__init__",),
          REPLAY),
    Layer("scenarios.replay",
          ("repro.scenarios.events:TimelineReplay.apply",),
          REPLAY, counts=_replay_event),
    Layer("scenarios.interpret",
          ("repro.scenarios.events:ReplayState.apply",),
          REPLAY),
    Layer("runtime.splice", ("repro.runtime.csr:CSRIndex.spliced",),
          REPLAY),
    Layer("runtime.delta", ("repro.runtime.delta:affected_update",),
          REPLAY),
    Layer("runtime.patch", ("repro.runtime.delta:patched_result",),
          REPLAY),
    Layer("service.dispatch",
          ("repro.service.daemon:QueryService.dispatch",),
          QUERY, time_unit="us"),
    # Recorded by the query workload itself around ``json.dumps``.
    Layer("service.encode", (), QUERY, time_unit="us"),
)

#: Counts derived from one layer's spans, with their units.
COUNTS: Dict[str, str] = {
    "bgp.origins": "count",
    "bgp.block_rows": "count",
    "collectors.entries": "count",
    "service.artifact_bytes": "B",
    "core.active.queries": "count",
    "runtime.reachmatrix.links": "count",
    "runtime.csr_rebuilds": "count",
}


@dataclass
class OpTrace:
    """Per-layer self seconds, calls and counts of one traced op."""

    wall: float = 0.0
    unattributed: float = 0.0
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


def _resolve(target: str):
    """``(owner, attribute, raw value)`` of a ``module:Qual.name`` target,
    or ``None`` when the module or attribute does not exist."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class SpanRecorder:
    """Install/uninstall layer wrappers and aggregate spans per op."""

    def __init__(self) -> None:
        #: (span id, layer, start, end, parent span id, op id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.ops: List[OpTrace] = []
        self.active = False
        self._stack: List[list] = []
        self._op: Optional[OpTrace] = None
        self._op_id = -1
        self._next_id = 0
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._wrappers: Dict[int, Callable] = {}
        self._missing: List[str] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target (a no-op while installed)."""
        if self._patches:
            return
        self._missing = []
        for layer in LAYERS:
            for target in layer.targets:
                resolved = _resolve(target)
                if resolved is None:
                    self._missing.append(target)
                    continue
                owner, attr, raw = resolved
                if inspect.ismodule(owner):
                    self._patch_function(layer, raw)
                else:
                    self._patch_method(layer, owner, attr, raw)

    def _wrapper_for(self, layer: Layer, fn: Callable) -> Callable:
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = self._wrap(layer, fn)
        return self._wrappers[key]

    def _patch_method(self, layer: Layer, owner, attr: str, raw) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper_for(layer, raw.__func__))
        else:
            wrapped = self._wrapper_for(layer, raw)
        own = attr in vars(owner)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, wrapped)

    def _patch_function(self, layer: Layer, fn: Callable) -> None:
        wrapped = self._wrapper_for(layer, fn)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) \
                    or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn, True))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches = []

    def missing_targets(self) -> List[str]:
        return list(self._missing)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        recorder = self
        name = layer.name
        counts = layer.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            frame = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(frame, start)
            if counts is not None and frame[3]:
                recorder.add_counts(counts(args, kwargs, result,
                                           recorder.open_layers()))
            return result
        return traced

    # The span's interval runs from before _open() to the end of
    # _close()'s bookkeeping, so the recorder's own cost is charged to the
    # span it serves rather than to its parent's self time.

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        # frame: [child seconds, span id, layer, outermost-of-its-layer,
        #         parent span id]
        outermost = not any(frame[2] == name for frame in self._stack)
        frame = [0.0, self._next_id, name, outermost,
                 parent[1] if parent is not None else -1]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float) -> float:
        stack = self._stack
        stack.pop()
        op = self._op
        name = frame[2]
        end = perf_counter()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        self.spans.append((frame[1], name, start, end, frame[4], self._op_id))
        if op is not None:
            op.self_s[name] = op.self_s.get(name, 0.0) + duration - frame[0]
            if frame[3]:
                op.calls[name] = op.calls.get(name, 0) + 1
        return end

    def open_layers(self) -> List[str]:
        return [frame[2] for frame in self._stack]

    def add_counts(self, increments: Dict[str, float]) -> None:
        if self._op is None:
            return
        for key, value in increments.items():
            self._op.counts[key] = self._op.counts.get(key, 0) + value

    def call(self, name: str, fn: Callable, *args):
        """``fn(*args)`` recorded as one span of *name* (for work the
        benchmark does itself, e.g. encoding a response)."""
        start = perf_counter()
        frame = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(frame, start)

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        self._op_id += 1
        self._op = OpTrace()
        self.active = True
        self._root_start = perf_counter()
        self._root = self._open("op")

    def end_op(self) -> OpTrace:
        end = self._close(self._root, self._root_start)
        self.active = False
        op, self._op = self._op, None
        op.wall = end - self._root_start
        op.unattributed = op.self_s.pop("op", 0.0)
        op.calls.pop("op", None)
        self.ops.append(op)
        return op

    def spans_json(self) -> List[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
                for sid, name, start, end, parent, op in self.spans]


def layer_metrics(ops: Sequence[OpTrace],
                  units_per_op: int = 1) -> Dict[str, Tuple[float, str]]:
    """Per-layer rows from traced ops: median self time per unit of work
    (an op, or one request of a batched op) in the layer's time unit,
    median calls and counts per unit, the root span's unattributed
    remainder, and the delta ratios.  Layers idle on every op read 0."""
    rows: Dict[str, Tuple[float, str]] = {}

    def per_unit(values):
        return statistics.median(values) / units_per_op if values else 0.0

    for layer in LAYERS:
        scale = 1e6 if layer.time_unit == "us" else 1e3
        rows[f"{layer.name}.self_{layer.time_unit}"] = (per_unit(
            [op.self_s.get(layer.name, 0.0) * scale for op in ops]),
            layer.time_unit)
        rows[f"{layer.name}.calls"] = (
            per_unit([op.calls.get(layer.name, 0) for op in ops]), "count")
    for name, unit in COUNTS.items():
        rows[name] = (per_unit([op.counts.get(name, 0) for op in ops]), unit)
    origins = sum(op.counts.get("runtime.delta.origins", 0) for op in ops)
    rows["runtime.delta.reuse_ratio"] = (
        sum(op.counts.get("runtime.delta.reused", 0) for op in ops) / origins
        if origins else 0.0, "ratio")
    rows["runtime.delta.affected_fraction"] = (
        sum(op.counts.get("runtime.delta.affected", 0) for op in ops)
        / origins if origins else 0.0, "ratio")
    rows["op.wall_ms"] = (per_unit([op.wall * 1e3 for op in ops]), "ms")
    rows["unattributed_ms"] = (
        per_unit([op.unattributed * 1e3 for op in ops]), "ms")
    rows["unattributed_pct"] = (statistics.median(
        100.0 * op.unattributed / op.wall for op in ops) if ops else 0.0,
        "%")
    return rows

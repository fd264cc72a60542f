"""`ScenarioRun`: execute a registered scenario's stage graph with caching.

A :class:`ScenarioRun` binds a scenario — any
:class:`~repro.scenarios.spec.ScenarioSpec` from the registry, by name
or by object — plus a :class:`~repro.scenarios.base.ScenarioConfig`
(and inference/analysis option namespaces) to the spec's declared stage
graph and executes stages on demand::

    run = ScenarioRun(scenario="europe2013",
                      config=small_scenario_config())
    scenario = run.scenario()        # builds topology..scenario stages
    result = run.inference()         # + connectivity + inference
    figures = run.analyses()         # + per-figure summaries

The scenario defaults to ``europe2013`` (the historical behaviour); the
config defaults to the spec's default size.  Passing a registered name
is the canonical way to run any family::

    ScenarioRun(scenario="hypergiant2016",
                config=get_scenario("hypergiant2016").config("small"))

Artifacts live in an :class:`~repro.pipeline.cache.ArtifactCache` keyed
by stage fingerprint (salted with the scenario name, so two families
with coincidentally equal configs never share artifacts).  Sharing one
cache across runs makes warm re-runs skip every stage whose fingerprint
is unchanged — re-running with only an analysis knob changed recomputes
*only* the analyses stage::

    cache = ArtifactCache()
    ScenarioRun(cfg, cache=cache).analyses()
    tweaked = ScenarioRun(cfg, cache=cache,
                          analysis_options=AnalysisOptions(figures=("table2",)))
    tweaked.analyses()               # every upstream stage is a cache hit
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Union

from repro.pipeline.analyses import AnalysisOptions
from repro.pipeline.cache import STATUS_COMPUTED, ArtifactCache
from repro.pipeline.stage import StageGraph

from dataclasses import dataclass

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoids a cycle)
    from repro.scenarios.base import Scenario, ScenarioConfig
    from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class InferenceOptions:
    """Knobs of the inference stage (the paper's ablation switches)."""

    use_passive: bool = True
    use_active: bool = True
    require_reciprocity: bool = True


class StageEvent(NamedTuple):
    """One resolved stage: where its artifact came from and how long."""

    stage: str
    status: str          #: "memory" / "disk" / "computed"
    seconds: float
    fingerprint: str


def europe2013_stage_graph() -> StageGraph:
    """The stage graph of the registered Europe-2013 scenario
    (back-compat alias for ``get_scenario("europe2013").stage_graph()``)."""
    from repro.scenarios.spec import get_scenario
    return get_scenario("europe2013").stage_graph()


def _resolve_spec(scenario: Union[str, "ScenarioSpec", None]) -> "ScenarioSpec":
    from repro.scenarios.spec import ScenarioSpec, get_scenario
    if scenario is None:
        return get_scenario("europe2013")
    if isinstance(scenario, str):
        return get_scenario(scenario)
    if isinstance(scenario, ScenarioSpec):
        return scenario
    raise TypeError(f"scenario must be a name or ScenarioSpec, "
                    f"got {type(scenario).__name__}")


class ScenarioRun:
    """Execute one scenario's pipeline against an artifact cache."""

    def __init__(
        self,
        config: Optional["ScenarioConfig"] = None,
        *,
        scenario: Union[str, "ScenarioSpec", None] = None,
        inference_options: Optional[InferenceOptions] = None,
        analysis_options: Optional[AnalysisOptions] = None,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        graph: Optional[StageGraph] = None,
    ) -> None:
        self.spec = _resolve_spec(scenario)
        self.config = config if config is not None else self.spec.config()
        self.inference_options = inference_options or InferenceOptions()
        self.analysis_options = analysis_options or AnalysisOptions(
            figures=self.spec.analyses)
        self.cache = cache if cache is not None else ArtifactCache(
            Path(cache_dir) if cache_dir is not None else None)
        self.graph = graph or self.spec.stage_graph()
        #: stage -> artifact resolved by *this* run (one entry per stage).
        self._resolved: Dict[str, Any] = {}
        #: one event per stage resolved by this run, in resolution order.
        self.events: List[StageEvent] = []
        self._fingerprints: Optional[Dict[str, str]] = None

    # -- fingerprints ---------------------------------------------------------

    def fingerprints(self) -> Dict[str, str]:
        """Fingerprint of every stage under this run's scenario/config."""
        if self._fingerprints is None:
            config_keys = {key for name in self.graph.names()
                           for key in self.graph.stage(name).config_keys}
            config_repr = {key: repr(getattr(self.config, key))
                           for key in sorted(config_keys)}
            options_repr = {
                "inference": repr(self.inference_options),
                "analysis": repr(self.analysis_options),
                "timeline": repr(getattr(self.spec, "timeline", None)),
            }
            self._fingerprints = self.graph.fingerprints(
                config_repr, options_repr, salt=self.spec.name)
        return self._fingerprints

    def fingerprint(self, stage_name: str) -> str:
        """The fingerprint of one stage."""
        return self.fingerprints()[stage_name]

    # -- execution ------------------------------------------------------------

    def artifact(self, stage_name: str) -> Any:
        """The artifact of *stage_name*, computing it (and its ancestors)
        on cache miss."""
        if stage_name in self._resolved:
            return self._resolved[stage_name]
        stage = self.graph.stage(stage_name)
        fingerprint = self.fingerprint(stage_name)
        status, value = self.cache.get(stage_name, fingerprint,
                                       allow_disk=stage.persist)
        seconds = 0.0
        if status is None:
            for dep in stage.deps:
                self.artifact(dep)
            started = time.perf_counter()
            value = stage.fn(self)
            seconds = time.perf_counter() - started
            self.cache.put(stage_name, fingerprint, value,
                           persist=stage.persist)
            status = STATUS_COMPUTED
        self._resolved[stage_name] = value
        self.events.append(StageEvent(stage_name, status, seconds, fingerprint))
        return value

    # -- convenience accessors ------------------------------------------------

    def scenario(self) -> "Scenario":
        """The assembled measurement environment."""
        return self.artifact("scenario")

    def connectivity(self):
        """Connectivity-discovery reports per IXP."""
        return self.artifact("connectivity")

    def inference(self):
        """The end-to-end MLP inference result."""
        return self.artifact("inference")

    def reachability(self):
        """The inference result's
        :class:`~repro.runtime.reachmatrix.ReachabilityMatrix` (per-IXP
        ALLOW planes + provenance): ``self.inference().matrix``."""
        return self.artifact("reachability")

    def analyses(self) -> Dict[str, dict]:
        """The per-figure analysis summaries."""
        return self.artifact("analyses")

    def timeline(self):
        """The event-timeline replay report
        (:class:`~repro.scenarios.events.TimelineReport`; ``None`` for
        specs without a timeline)."""
        return self.artifact("timeline")

    def table2(self) -> List[Dict[str, object]]:
        """The paper's Table 2 rows (via the analyses stage)."""
        summaries = self.analyses()
        if "table2" in summaries:
            return summaries["table2"]["rows"]
        from repro.pipeline.analyses import _analyse_table2
        return _analyse_table2(self.scenario(), self.inference(),
                               self.analysis_options)["rows"]

    # -- export ---------------------------------------------------------------

    def export_reachability(self, directory: Union[str, Path],
                            size: Optional[str] = None) -> Path:
        """Write the reachability matrix (plus Table 2 provenance) as the
        mmap-able on-disk artifact of :mod:`repro.service.artifact`.

        Runs the pipeline through the reachability/analyses stages if
        needed, then persists packed member x member planes that any
        number of query workers can share via ``np.load(mmap_mode="r")``.
        Returns the artifact directory.
        """
        from repro.service.artifact import save_matrix
        return save_matrix(self.reachability(), directory,
                           scenario=self.spec.name, size=size,
                           table2=self.table2())

    # -- introspection --------------------------------------------------------

    def stage_statuses(self) -> Dict[str, str]:
        """Stage -> cache status for every stage this run resolved."""
        return {event.stage: event.status for event in self.events}

    def cache_summary(self) -> Dict[str, int]:
        """Counts of resolved stages per cache status."""
        summary: Dict[str, int] = {}
        for event in self.events:
            summary[event.status] = summary.get(event.status, 0) + 1
        return summary

    def runtime_stats(self) -> Dict[str, int]:
        """Size/accounting counters of the scenario's runtime context
        (interner sizes, route-cache entries/bytes/hits/misses, ...).

        Resolves the scenario stage if it has not run yet; the
        route-cache counters make memoisation behaviour observable from
        a run handle (e.g. repeated propagation hitting cached blocks).
        """
        return self.scenario().context.stats()

    def __repr__(self) -> str:
        resolved = ", ".join(f"{e.stage}:{e.status}" for e in self.events)
        return (f"ScenarioRun({self.spec.name}: "
                f"{resolved or 'nothing resolved'})")

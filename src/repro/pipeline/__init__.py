"""Staged scenario pipeline: an artifact-cached stage graph.

The pipeline package turns the monolithic per-scenario pass into a
declarative stage graph:

* :class:`Stage` / :class:`StageGraph` (``stage.py``) — stages declare
  their inputs, the config keys they read, and derive deterministic
  fingerprints (config + upstream fingerprints);
* :class:`ArtifactCache` (``cache.py``) — memory + optional on-disk
  artifact store keyed by fingerprint, so re-running a scenario with one
  changed knob only recomputes the stages downstream of the change;
* :class:`ScenarioRun` (``run.py``) — binds any registered
  :class:`~repro.scenarios.spec.ScenarioSpec` (by name or object, with
  its :class:`~repro.scenarios.base.ScenarioConfig`) to the spec's
  declared stage graph and executes stages on demand, every stage in
  one process;
* ``analyses.py`` — the per-figure analysis registry (Table 2,
  figures 6/7/12).
"""

from repro.pipeline.analyses import AnalysisOptions, run_analyses
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.run import (
    InferenceOptions,
    ScenarioRun,
    StageEvent,
)
from repro.pipeline.stage import Stage, StageGraph

__all__ = [
    "AnalysisOptions",
    "ArtifactCache",
    "InferenceOptions",
    "ScenarioRun",
    "Stage",
    "StageEvent",
    "StageGraph",
    "run_analyses",
]

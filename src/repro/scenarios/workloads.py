"""Parameterised workload configurations for tests, examples and benchmarks.

Sizes are no longer hand-rolled per function: every registered scenario
family carries a size table (``tiny`` / ``small`` / ``bench`` /
``medium`` / ``large`` / ``full`` by default, see
:data:`repro.scenarios.spec.DEFAULT_SIZES`), and this module resolves
``(scenario, size, seed)`` triples through the registry.  The historical
``small_scenario_config`` / ``medium_scenario_config`` /
``large_scenario_config`` helpers remain as thin, bit-identical wrappers
over the ``europe2013`` rows of that table.
"""

from __future__ import annotations

from typing import List, Optional

from repro.scenarios.base import ScenarioConfig
from repro.scenarios.spec import get_scenario, scenario_names


def scenario_config(size: str = "small", seed: Optional[int] = None,
                    scenario: str = "europe2013") -> ScenarioConfig:
    """The :class:`ScenarioConfig` of one registered scenario at one size."""
    return get_scenario(scenario).config(size, seed)


def small_scenario_config(seed: int = 20130501) -> ScenarioConfig:
    """A small, fast europe2013 configuration for tests."""
    return scenario_config("small", seed)


def medium_scenario_config(seed: int = 20130501) -> ScenarioConfig:
    """The default europe2013 benchmark configuration (~quarter scale)."""
    return scenario_config("medium", seed)


def large_scenario_config(seed: int = 20130501) -> ScenarioConfig:
    """A europe2013 configuration closer to the paper's scale (slower)."""
    return scenario_config("large", seed)


def workload_sizes(scenario: str = "europe2013") -> List[str]:
    """The sizes a registered scenario can be instantiated at."""
    return get_scenario(scenario).size_names()


def scenario_run(size: str = "small", seed: Optional[int] = None, *,
                 scenario: str = "europe2013",
                 cache=None, cache_dir=None):
    """A :class:`~repro.pipeline.run.ScenarioRun` for a named workload.

    This is the canonical entry point for executing a workload through
    the staged pipeline: the scenario resolves through the registry,
    stages resolve lazily and artifacts land in *cache* (or a fresh
    one).  ``seed`` defaults to the spec's own ``base_seed`` (the
    family's declared identity).
    """
    spec = get_scenario(scenario)
    if size not in spec.sizes:
        raise ValueError(
            f"unknown workload {size!r} (choose from {sorted(spec.sizes)})")
    from repro.pipeline.run import ScenarioRun
    return ScenarioRun(spec.config(size, seed), scenario=spec,
                       cache=cache, cache_dir=cache_dir)


def scenario_matrix(size: str = "tiny", seed: Optional[int] = None, *,
                    cache=None):
    """One :class:`~repro.pipeline.run.ScenarioRun` per registered
    scenario family, in name order — the CI smoke matrix."""
    return [scenario_run(size, seed, scenario=name, cache=cache)
            for name in scenario_names()]

"""Parameterised workload configurations for tests, examples and benchmarks.

Sizes are no longer hand-rolled per function: every registered scenario
family carries a size table (``tiny`` / ``small`` / ``bench`` /
``medium`` / ``large`` / ``full`` by default, see
:data:`repro.scenarios.spec.DEFAULT_SIZES`), and this module resolves
``(scenario, size, seed)`` triples through the registry.
:func:`small_scenario_config` is the ``europe2013`` ``small`` row.
"""

from __future__ import annotations

from typing import Optional

from repro.scenarios.base import ScenarioConfig
from repro.scenarios.spec import get_scenario


def scenario_config(size: str = "small", seed: Optional[int] = None,
                    scenario: str = "europe2013") -> ScenarioConfig:
    """The :class:`ScenarioConfig` of one registered scenario at one size."""
    return get_scenario(scenario).config(size, seed)


def small_scenario_config(seed: int = 20130501) -> ScenarioConfig:
    """A small, fast europe2013 configuration for tests."""
    return scenario_config("small", seed)


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

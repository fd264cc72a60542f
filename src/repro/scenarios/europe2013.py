"""The "13 large European IXPs, May 2013" scenario (back-compat surface).

Historically this module *was* the scenario layer: the Europe-2013
measurement environment was hardwired into the stage functions defined
here.  The machinery now lives in scenario-generic modules —

* :mod:`repro.scenarios.base` — :class:`ScenarioConfig`,
  :class:`Scenario`, the stage bodies and the declarative stage library;
* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and the registry;
* :mod:`repro.scenarios.families` — the registered families, including
  ``europe2013`` itself (the paper's Table 2 roster with Table 1
  community grammars);

— and this module re-exports the historical names so existing imports
(`ScenarioConfig`, `Scenario`, `build_europe2013`, the ``stage_*``
functions) keep working unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.scenarios.base import (  # noqa: F401  (re-exported API)
    Scenario,
    ScenarioConfig,
    _as_set_name,
    stage_collectors,
    stage_ixps,
    stage_propagation,
    stage_registries,
    stage_scenario,
    stage_topology,
    stage_viewpoints,
)

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "build_europe2013",
    "stage_collectors",
    "stage_ixps",
    "stage_propagation",
    "stage_registries",
    "stage_scenario",
    "stage_topology",
    "stage_viewpoints",
]


def build_europe2013(
    config: Optional[ScenarioConfig] = None,
) -> Scenario:
    """Assemble the full Europe-2013 scenario.

    This is a convenience wrapper over the staged pipeline: it executes
    the registered ``europe2013`` spec's stage graph through a fresh
    :class:`~repro.pipeline.run.ScenarioRun` (no shared cache) and
    returns the assembled :class:`Scenario`.
    """
    from repro.pipeline.run import ScenarioRun
    return ScenarioRun(config or ScenarioConfig(),
                       scenario="europe2013").scenario()

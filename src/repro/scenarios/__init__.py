"""Ready-made synthetic ecosystems, declaratively specified.

The scenario layer is split into:

* :mod:`repro.scenarios.base` — scenario-generic assembly: the
  :class:`ScenarioConfig` knobs, the assembled :class:`Scenario`
  environment, the stage bodies and the declarative stage library;
* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` (topology phases,
  IXP roster + community-scheme assignment, measurement surface,
  analysis suite, size table) and the :class:`ScenarioRegistry`;
* :mod:`repro.scenarios.families` — the registered built-ins:
  ``europe2013`` (the paper's Table 2 measurement), ``hypergiant2016``,
  ``sparse-view`` and the ``growth-sweep-<year>`` ladder;
* :mod:`repro.scenarios.workloads` — named (scenario, size) entry
  points for tests, examples, benchmarks and the CI smoke matrix.

``get_scenario("<name>")`` is the one lookup everything goes through;
registering a new :class:`ScenarioSpec` makes the family available to
every consumer at once.
"""

from repro.scenarios.base import Scenario, ScenarioConfig
from repro.scenarios.spec import (
    DEFAULT_SIZES,
    REGISTRY,
    ScenarioRegistry,
    ScenarioSpec,
    SizeProfile,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.workloads import (
    scenario_config,
    scenario_run,
    small_scenario_config,
)

__all__ = [
    "DEFAULT_SIZES",
    "REGISTRY",
    "Scenario",
    "ScenarioConfig",
    "ScenarioRegistry",
    "ScenarioSpec",
    "SizeProfile",
    "all_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_config",
    "scenario_names",
    "scenario_run",
    "small_scenario_config",
]

"""Shared fixtures: a small end-to-end scenario built once per session."""

from __future__ import annotations

import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.workloads import small_scenario_config


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="regenerate the tests/goldens/*.json scenario fixtures "
             "instead of failing on a mismatch")


@pytest.fixture(scope="session")
def small_scenario():
    """The small synthetic Europe-2013 scenario (built once)."""
    return ScenarioRun(small_scenario_config(seed=20130501),
                       cache=ArtifactCache()).scenario()


@pytest.fixture(scope="session")
def bench_run():
    """The europe2013 scenario run at the ``bench`` size (the acceptance
    size of the differential suites), resolved lazily."""
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios.spec import get_scenario
    return ScenarioRun(get_scenario("europe2013").config("bench"),
                       cache=ArtifactCache())


@pytest.fixture(scope="session")
def churn_baseline():
    """The europe2013-churn tiny replay baseline: ``(graph,
    route_servers, propagation result, record_at, record_alt)``.
    Replays copy it; no test may mutate it."""
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios.events import record_sets
    from repro.scenarios.spec import get_scenario
    spec = get_scenario("europe2013-churn")
    run = ScenarioRun(spec.config("tiny"), scenario=spec.name,
                      cache=ArtifactCache())
    propagation = run.artifact("propagation")
    scenario = run.scenario()
    return (scenario.graph, scenario.route_servers,
            propagation["propagation"], *record_sets(propagation))


@pytest.fixture(scope="session")
def inference_result(small_scenario):
    """Full inference (passive + active) over the small scenario."""
    return small_scenario.run_inference()


@pytest.fixture(scope="session")
def object_result(small_scenario):
    """The same inference through the per-IXP object oracle
    (:mod:`tests.oracle.inference`): its records are the object-level
    reference of every plane of ``inference_result``."""
    from tests.oracle.inference import object_inference
    return object_inference(small_scenario)


@pytest.fixture(scope="session")
def connectivity_reports(small_scenario):
    """Connectivity discovery reports for the small scenario."""
    return small_scenario.discover_connectivity()

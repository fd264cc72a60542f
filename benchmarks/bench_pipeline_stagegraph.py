"""Stage-graph pipeline overhead: warm-cache re-runs.

Measures the cost the staged pipeline introduces on top of the raw
computation: resolving stages against a warm artifact cache (the price
of an incremental re-run that recomputes nothing upstream).
"""

from repro.pipeline import AnalysisOptions, ArtifactCache, ScenarioRun
from repro.scenarios.workloads import small_scenario_config


def test_warm_cache_rerun(benchmark):
    cache = ArtifactCache()
    ScenarioRun(small_scenario_config(), cache=cache).analyses()  # cold fill

    def warm_rerun():
        run = ScenarioRun(
            small_scenario_config(), cache=cache,
            analysis_options=AnalysisOptions(figures=("table2",)))
        return run.analyses(), run.stage_statuses()

    summaries, statuses = benchmark(warm_rerun)
    print("\nStage-graph warm re-run (analysis knob changed)")
    for stage, status in statuses.items():
        print(f"  {stage:<14} {status}")
    assert set(summaries) == {"table2"}
    assert all(status == "memory" for stage, status in statuses.items()
               if stage != "analyses")

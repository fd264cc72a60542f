"""ScenarioRun: stage-graph execution, fingerprints and artifact caching."""

from __future__ import annotations

import pytest

from repro.pipeline import (
    AnalysisOptions,
    ArtifactCache,
    InferenceOptions,
    ScenarioRun,
    Stage,
    StageGraph,
    europe2013_stage_graph,
)
from repro.runtime.delta import fragments_equivalent
from repro.scenarios.events import TimelineReplay, record_sets
from repro.scenarios.spec import get_scenario
from repro.scenarios.workloads import scenario_run, small_scenario_config

from tests.oracle.kernels import forced_kernel


@pytest.fixture(scope="module")
def shared_cache():
    """One artifact cache shared by the runs in this module."""
    return ArtifactCache()


@pytest.fixture(scope="module")
def cold_run(shared_cache):
    """A cold run that has resolved every stage once."""
    run = ScenarioRun(small_scenario_config(), cache=shared_cache)
    run.analyses()
    run.reachability()  # leaf stages: nothing depends on them
    run.timeline()
    return run


class TestStageGraph:
    def test_topological_order(self):
        graph = europe2013_stage_graph()
        order = graph.names()
        for name in order:
            for dep in graph.stage(name).deps:
                assert order.index(dep) < order.index(name)

    def test_ancestors(self):
        graph = europe2013_stage_graph()
        assert graph.ancestors("topology") == []
        assert set(graph.ancestors("inference")) == {
            "topology", "ixps", "propagation", "collectors", "viewpoints",
            "registries", "scenario", "connectivity"}

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            StageGraph([Stage("a", fn=lambda run: None, deps=("missing",))])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            StageGraph([
                Stage("a", fn=lambda run: None, deps=("b",)),
                Stage("b", fn=lambda run: None, deps=("a",)),
            ])

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph([Stage("a", fn=lambda run: None),
                        Stage("a", fn=lambda run: None)])


class TestFingerprints:
    def test_stable_across_runs(self):
        a = ScenarioRun(small_scenario_config())
        b = ScenarioRun(small_scenario_config())
        assert a.fingerprints() == b.fingerprints()

    def test_workers_knob_rejected(self, cold_run):
        """Every stage runs in-process: no entry point takes a worker
        count any more."""
        with pytest.raises(TypeError, match="workers"):
            ScenarioRun(small_scenario_config(), workers=2)
        with pytest.raises(TypeError, match="workers"):
            scenario_run("tiny", workers=2)
        propagation = cold_run.artifact("propagation")
        record_at, record_alternatives_at = record_sets(propagation)
        with pytest.raises(TypeError, match="workers"):
            TimelineReplay(
                cold_run.artifact("topology").graph,
                cold_run.artifact("ixps")["route_servers"],
                propagation["propagation"], record_at,
                record_alternatives_at, workers=2)

    def test_generator_change_invalidates_everything(self):
        base = ScenarioRun(small_scenario_config(seed=1)).fingerprints()
        other = ScenarioRun(small_scenario_config(seed=2)).fingerprints()
        assert all(base[name] != other[name] for name in base)

    def test_analysis_knob_only_touches_analyses(self):
        base = ScenarioRun(small_scenario_config()).fingerprints()
        tweaked = ScenarioRun(
            small_scenario_config(),
            analysis_options=AnalysisOptions(figures=("table2",)),
        ).fingerprints()
        assert tweaked["analyses"] != base["analyses"]
        for name in base:
            if name != "analyses":
                assert tweaked[name] == base[name]

    def test_inference_knob_touches_inference_and_downstream(self):
        base = ScenarioRun(small_scenario_config()).fingerprints()
        tweaked = ScenarioRun(
            small_scenario_config(),
            inference_options=InferenceOptions(require_reciprocity=False),
        ).fingerprints()
        assert tweaked["inference"] != base["inference"]
        assert tweaked["analyses"] != base["analyses"]
        for name in ("topology", "ixps", "propagation", "collectors",
                     "viewpoints", "registries", "scenario", "connectivity"):
            assert tweaked[name] == base[name]

    def test_collector_knob_leaves_propagation_alone(self):
        base = ScenarioRun(small_scenario_config()).fingerprints()
        config = small_scenario_config()
        config.transient_fraction = 0.05
        tweaked = ScenarioRun(config).fingerprints()
        for name in ("topology", "ixps", "propagation", "viewpoints",
                     "registries"):
            assert tweaked[name] == base[name]
        for name in ("collectors", "scenario", "connectivity", "inference",
                     "analyses"):
            assert tweaked[name] != base[name]


class TestCaching:
    def test_cold_run_computes_every_stage(self, cold_run):
        statuses = cold_run.stage_statuses()
        assert set(statuses) == set(europe2013_stage_graph().names())
        assert set(statuses.values()) == {"computed"}

    def test_warm_rerun_hits_memory_everywhere(self, shared_cache, cold_run):
        rerun = ScenarioRun(small_scenario_config(), cache=shared_cache)
        rerun.analyses()
        assert set(rerun.stage_statuses().values()) == {"memory"}

    def test_analysis_knob_change_skips_all_upstream_stages(
            self, shared_cache, cold_run):
        tweaked = ScenarioRun(
            small_scenario_config(), cache=shared_cache,
            analysis_options=AnalysisOptions(figures=("table2", "density"),
                                             small_degree_threshold=5))
        summaries = tweaked.analyses()
        statuses = tweaked.stage_statuses()
        assert statuses["analyses"] == "computed"
        assert all(status == "memory" for name, status in statuses.items()
                   if name != "analyses")
        assert set(summaries) == {"table2", "density"}
        # The cached upstream artifacts are reused, not rebuilt.
        assert tweaked.scenario() is cold_run.scenario()
        assert tweaked.inference() is cold_run.inference()

    def test_artifacts_identical_within_cache(self, shared_cache, cold_run):
        rerun = ScenarioRun(small_scenario_config(), cache=shared_cache)
        assert rerun.scenario() is cold_run.scenario()

    def test_events_record_one_entry_per_stage(self, cold_run):
        stages = [event.stage for event in cold_run.events]
        assert len(stages) == len(set(stages))
        assert cold_run.cache_summary() == {"computed": len(stages)}


class TestDiskCache:
    def test_persistent_stages_roundtrip_via_disk(self, tmp_path):
        config = small_scenario_config()
        first = ScenarioRun(config, cache=ArtifactCache(tmp_path))
        result = first.inference()
        # A separate process/session: fresh memory cache, same directory.
        second = ScenarioRun(config, cache=ArtifactCache(tmp_path))
        reloaded = second.inference()
        assert second.stage_statuses() == {"inference": "disk"}
        assert reloaded.matrix.all_links() == result.matrix.all_links()
        assert reloaded.table2() == result.table2()

    def test_warm_disk_run_exports_the_cold_artifact(self, tmp_path):
        """A second run over one disk cache (topology, propagation and
        inference read from disk, as ``repro.service.daemon
        --cache-dir`` does on a restart) exports the cold run's
        reachability artifact byte for byte: the matrix travels with
        the pickled inference result, observation counts and
        ``built_by`` included."""
        config = get_scenario("europe2013").config("tiny")
        exported = {}
        for name in ("cold", "warm"):
            run = ScenarioRun(config, scenario="europe2013",
                              cache=ArtifactCache(tmp_path / "cache"))
            exported[name] = run.export_reachability(tmp_path / name,
                                                     size="tiny")
        statuses = run.stage_statuses()
        for stage in ("topology", "propagation", "inference"):
            assert statuses[stage] == "disk", (stage, statuses)
        cold = sorted(path.name for path in exported["cold"].iterdir())
        warm = sorted(path.name for path in exported["warm"].iterdir())
        assert cold == warm
        assert "header.json" in cold
        for name in cold:
            assert (exported["cold"] / name).read_bytes() == \
                (exported["warm"] / name).read_bytes(), name

    def test_corrupt_disk_file_treated_as_miss(self, tmp_path):
        config = small_scenario_config()
        first = ScenarioRun(config, cache=ArtifactCache(tmp_path))
        result = first.inference()
        fingerprint = first.fingerprint("inference")
        victim = ArtifactCache(tmp_path)._disk_path("inference", fingerprint)
        victim.write_bytes(b"not a pickle")
        recovered = ScenarioRun(config, cache=ArtifactCache(tmp_path))
        assert recovered.inference().matrix.all_links() == \
            result.matrix.all_links()
        assert recovered.stage_statuses()["inference"] == "computed"

    def test_disk_miss_on_changed_options(self, tmp_path):
        config = small_scenario_config()
        ScenarioRun(config, cache=ArtifactCache(tmp_path)).inference()
        other = ScenarioRun(
            config, cache=ArtifactCache(tmp_path),
            inference_options=InferenceOptions(use_active=False))
        other.inference()
        # Inference recomputed, but the expensive persisted build stages
        # (topology, propagation) come back from disk.
        statuses = other.stage_statuses()
        assert statuses["inference"] == "computed"
        assert statuses["topology"] == "disk"
        assert statuses["propagation"] == "disk"

    def test_unpickled_context_propagates_identically(self, tmp_path):
        """The disk cache pickles the propagation artifact together with
        its PipelineContext: the context a later session unpickles must
        rebuild the same index and recompute the same blocks on both
        kernels."""
        config = get_scenario("europe2013").config("tiny")
        first = ScenarioRun(config, cache=ArtifactCache(tmp_path))
        built = first.artifact("propagation")
        second = ScenarioRun(config, cache=ArtifactCache(tmp_path))
        loaded = second.artifact("propagation")
        assert second.stage_statuses() == {"propagation": "disk"}
        context = loaded["context"]
        assert context.index.summary() == built["context"].index.summary()

        expected = built["propagation"].recorded_fragments()
        origins = [loaded["propagation"].origin_spec(asn)
                   for asn in expected]
        record_at, record_alternatives_at = record_sets(loaded)
        engine = context.engine(
            record_at=record_at,
            record_alternatives_at=record_alternatives_at)
        context.route_cache.clear()
        with forced_kernel("frontier"):
            [one] = engine.batch_fragments(origins[:1])
        assert fragments_equivalent(one, expected[origins[0].asn])
        context.route_cache.clear()
        with forced_kernel("compiled"):
            every = engine.batch_fragments(origins)
        assert len(every) == len(expected) > 1
        for spec, fragments in zip(origins, every):
            assert fragments_equivalent(fragments, expected[spec.asn]), \
                spec.asn


class TestWorkloadEntryPoint:
    def test_named_workload_builds_run(self):
        run = scenario_run("small")
        assert isinstance(run, ScenarioRun)
        assert run.config == small_scenario_config()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            scenario_run("galactic")


class TestScenarioEquivalence:
    def test_wrapper_matches_staged_pipeline(self, small_scenario, cold_run):
        """`build_europe2013` (the compatibility wrapper) and a staged
        run assemble the same scenario content."""
        staged = cold_run.scenario()
        assert staged.ground_truth_links() == small_scenario.ground_truth_links()
        assert staged.public_bgp_links() == small_scenario.public_bgp_links()
        assert [vp.asn for vp in staged.vantage_points] == \
            [vp.asn for vp in small_scenario.vantage_points]
        assert staged.rs_members_by_ixp() == small_scenario.rs_members_by_ixp()

"""The scenario-spec layer: registry, size tables, and the families.

The acceptance-critical properties:

* ``europe2013`` resolved through the registry produces exactly the
  historical workload configurations (the spec path is bit-identical —
  the heavy equivalence is asserted by the pipeline suite, here we pin
  the configs);
* every registered family instantiates end-to-end through
  :class:`~repro.pipeline.run.ScenarioRun` at tiny scale, with warm
  re-runs hitting the cache.
"""

from __future__ import annotations

import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.base import (
    ScenarioConfig,
    default_stage_names,
    stage_graph_for,
)
from repro.scenarios.families import (
    GROWTH_SWEEP_YEARS,
    growth_sweep_spec,
    hypergiant_era_ixps,
    sparse_view_ixps,
)
from repro.scenarios.spec import (
    DEFAULT_SIZES,
    ScenarioRegistry,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)
from repro.scenarios.workloads import (
    scenario_config,
    scenario_run,
    small_scenario_config,
)

#: Families beyond europe2013 that must run end-to-end.
NEW_FAMILIES = ("hypergiant2016", "sparse-view", "growth-sweep-2016")


class TestRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        assert "europe2013" in names
        assert set(NEW_FAMILIES) <= set(names)
        assert len(names) >= 4

    def test_unknown_scenario_raises_with_candidates(self):
        with pytest.raises(KeyError, match="unknown scenario.*europe2013"):
            get_scenario("atlantis2099")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register(ScenarioSpec(name="x"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(ScenarioSpec(name="x"))
        registry.register(ScenarioSpec(name="x", description="v2"),
                          replace_existing=True)
        assert registry.get("x").description == "v2"

    def test_iteration_is_name_sorted(self):
        registry = ScenarioRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(ScenarioSpec(name=name))
        assert [spec.name for spec in registry] == ["alpha", "mid", "zeta"]

    def test_with_overrides_derives_renamed_spec(self):
        base = get_scenario("europe2013")
        derived = base.with_overrides(name="europe2013-variant",
                                      member_growth=2.0)
        assert derived.name == "europe2013-variant"
        assert derived.member_growth == 2.0
        assert base.member_growth == 1.0


class TestSizeTable:
    def test_europe2013_small_matches_historical_workload(self):
        assert get_scenario("europe2013").config("small") == \
            small_scenario_config()


    def test_full_size_matches_default_config(self):
        assert get_scenario("europe2013").config("full") == ScenarioConfig()

    def test_seed_threads_through(self):
        config = get_scenario("europe2013").config("small", seed=777)
        assert config.generator.seed == 777
        assert config.seed == 778
        assert config == small_scenario_config(seed=777)

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="no size"):
            get_scenario("europe2013").config("galactic")

    def test_workload_sizes_exposes_table(self):
        assert set(get_scenario("europe2013").size_names()) == \
            set(DEFAULT_SIZES)

    def test_scenario_run_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            scenario_run("galactic")


class TestFamilyConfigs:
    def test_hypergiant2016_roster_and_knobs(self):
        config = get_scenario("hypergiant2016").config("tiny")
        generator = config.generator
        assert generator.ixps is not None
        assert [spec.name for spec in generator.ixps] == \
            [spec.name for spec in hypergiant_era_ixps(0.08)]
        assert generator.num_hypergiants == 8
        assert generator.content_multiplier == 2.5
        assert generator.hypergiant_private_peering_probability == 0.18

    def test_sparse_view_surface_wins_over_profile(self):
        # The small profile says 0.10 vantage fraction; the family's
        # surface (its identity) must override it at every size.
        for size in ("tiny", "small", "medium"):
            config = get_scenario("sparse-view").config(size)
            assert config.vantage_point_fraction == 0.02
            assert config.num_validation_lgs == 8
        rosters = config.generator.ixps
        assert sum(spec.has_rs_lg for spec in rosters) == 1
        assert sum(spec.publishes_member_list for spec in rosters) == 2

    def test_sparse_view_roster_helper(self):
        rosters = sparse_view_ixps(0.10)
        assert len(rosters) == 13
        assert {spec.name for spec in rosters if spec.has_rs_lg} == {"DE-CIX"}

    def test_growth_sweep_ladder_is_monotonic(self):
        growths = [get_scenario(f"growth-sweep-{year}").member_growth
                   for year in GROWTH_SWEEP_YEARS]
        assert growths == sorted(growths)
        assert growths[0] > 1.0

    def test_growth_sweep_scales_member_counts(self):
        base = get_scenario("europe2013").config("tiny")
        grown = get_scenario("growth-sweep-2018").config("tiny")
        assert grown.generator.ixp_member_scale > \
            base.generator.ixp_member_scale

    def test_growth_sweep_pre_baseline_rejected(self):
        with pytest.raises(ValueError, match="2013"):
            growth_sweep_spec(2012)


class TestStageDeclarations:
    def test_default_stage_names_cover_full_pipeline(self):
        names = default_stage_names()
        assert names[0] == "topology"
        assert names[-1] == "analyses"
        graph = stage_graph_for(names)
        assert len(graph) == len(names)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stages"):
            stage_graph_for(("topology", "quantum"))

    def test_spec_declares_stage_subset(self):
        spec = get_scenario("europe2013").with_overrides(
            name="topology-only", stage_names=("topology", "ixps"))
        graph = spec.stage_graph()
        assert graph.names() == ["topology", "ixps"]

    def test_fingerprints_salted_by_scenario_name(self):
        config = small_scenario_config()
        base = ScenarioRun(config, cache=ArtifactCache())
        salted_spec = get_scenario("europe2013").with_overrides(
            name="europe2013-salted")
        salted = ScenarioRun(config, scenario=salted_spec,
                             cache=ArtifactCache())
        for name, fingerprint in base.fingerprints().items():
            assert salted.fingerprint(name) != fingerprint


class TestFamiliesEndToEnd:
    """Every new family runs end-to-end with caching."""

    @pytest.fixture(scope="class")
    def family_runs(self):
        """Per-family: (cold run, warm re-run) over one cache."""
        runs = {}
        for name in NEW_FAMILIES:
            cache = ArtifactCache()
            cold = scenario_run("tiny", scenario=name, cache=cache)
            cold.analyses()
            warm = scenario_run("tiny", scenario=name, cache=cache)
            warm.analyses()
            runs[name] = (cold, warm)
        return runs

    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_cold_run_infers_links(self, family_runs, name):
        cold, _ = family_runs[name]
        result = cold.inference()
        assert len(result.matrix.all_links()) > 0
        assert len(result.per_ixp) >= 1
        assert cold.spec.name == name

    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_warm_rerun_hits_memory_cache(self, family_runs, name):
        _, warm = family_runs[name]
        assert set(warm.stage_statuses().values()) == {"memory"}

    def test_families_produce_distinct_ecosystems(self, family_runs):
        link_sets = {name: family_runs[name][0].inference().matrix.all_links()
                     for name in NEW_FAMILIES}
        values = list(link_sets.values())
        assert len({frozenset(v) for v in values}) == len(values)

    def test_hypergiant2016_regime_is_content_heavy(self, family_runs):
        cold, _ = family_runs["hypergiant2016"]
        scenario = cold.scenario()
        assert len(scenario.internet.hypergiants) == 8
        assert len(scenario.internet.private_peering_pairs) > 0
        assert len(scenario.ixps) == 6

    def test_sparse_view_regime_is_observation_poor(self, family_runs):
        cold, _ = family_runs["sparse-view"]
        scenario = cold.scenario()
        assert len(scenario.rs_looking_glasses) == 1
        europe = scenario_run("tiny", cache=ArtifactCache())
        assert len(scenario.vantage_points) < \
            len(europe.scenario().vantage_points)

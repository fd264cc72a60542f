"""Differential harness: production inference vs the object oracle.

Every registered scenario (at tiny size) and randomized europe2013
regimes (generator-knob strategy mirroring
``tests/runtime/test_batched.py``) must produce **bit-identical**
inference from the production engine (the bitset observation planes)
and the per-IXP object oracle (:mod:`tests.oracle.inference`): links,
per-IXP link sets, Table 2 rows, every member's reachability read off
the planes (mode / listed / provenance / prefix counts), the plane
columns against the oracle's integer-bitmask rule, and active query
spend.  The scenario memoises the engine's planes per collection
(every ablation, memo hits included, equals the oracle), and the
derived-view caches of the result's matrix must not re-sort on
repeated access.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.engine import MLPInferenceEngine
from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.base import ScenarioConfig
from repro.scenarios.spec import get_scenario, scenario_names
from repro.scenarios.workloads import scenario_run
from repro.topology.generator import GeneratorConfig
from repro.topology.relationships import LinkType

from tests.oracle.inference import (
    differences,
    identical,
    object_inference,
    run_object_inference,
)


def assert_bit_identical(obj, bit):
    """Full-result equivalence: links, Table 2, provenance, queries.

    The global views are compared first; ``differences`` (the shared
    predicate behind ``identical``) names every per-IXP field, member
    and plane column that disagrees.
    """
    assert obj.matrix.all_links() == bit.matrix.all_links()
    assert obj.matrix.links_by_ixp() == bit.matrix.links_by_ixp()
    assert obj.matrix.multi_ixp_links() == bit.matrix.multi_ixp_links()
    assert obj.matrix.link_ixps() == bit.matrix.link_ixps()
    assert differences(obj, bit) == []


# -- all registered scenarios --------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_backends_identical_on_registered_scenarios(name):
    """The object oracle and production inference agree on every
    registered family at tiny size (same scenario artifacts)."""
    run = scenario_run("tiny", scenario=name, cache=ArtifactCache())
    assert_bit_identical(run_object_inference(run), run.inference())


# -- randomized regimes (generator-knob strategy) ------------------------------


def _random_scenario_config(rng: random.Random) -> ScenarioConfig:
    """A seeded random regime: phase selection plus hypergiant /
    private-peering / bilateral knobs (the strategy of
    ``tests/runtime/test_batched.py``), wrapped in a ScenarioConfig."""
    from repro.topology.phases import DEFAULT_PHASE_ORDER
    phases = list(DEFAULT_PHASE_ORDER)
    for optional in ("sibling-links", "backbone-peering", "private-peering"):
        if rng.random() < 0.35:
            phases.remove(optional)
    low = rng.randint(1, 3)
    generator = GeneratorConfig(
        seed=rng.randrange(1 << 30),
        scale=rng.uniform(0.05, 0.09),
        ixp_member_scale=rng.uniform(0.04, 0.08),
        sibling_pair_fraction=rng.choice([0.0, 0.01, 0.05]),
        num_hypergiants=rng.randint(2, 5),
        hypergiant_ixp_presence=rng.uniform(0.3, 1.0),
        hypergiant_private_peering_probability=rng.uniform(0.0, 0.15),
        bilateral_peer_range=(low, low + rng.randint(0, 5)),
        content_multiplier=rng.choice([0.8, 1.0, 1.6]),
        phases=tuple(phases),
    )
    return ScenarioConfig(
        generator=generator,
        seed=rng.randrange(1 << 30),
        vantage_point_fraction=rng.uniform(0.04, 0.12),
        # Far above the paper's <0.5% so the mixed-policy merge
        # fallback (the inconsistency tail) is exercised every seed.
        inconsistent_member_fraction=rng.choice([0.2, 0.5]),
        num_validation_lgs=rng.randint(5, 15),
        num_traceroute_monitors=rng.randint(4, 10),
    )


@pytest.mark.parametrize("seed", [2013, 4242, 77])
def test_backends_identical_on_random_regimes(seed):
    """Property-based differential: randomized generator/measurement
    knobs (including an aggressive inconsistent-member fraction, which
    exercises the mixed-policy merge fallback) produce bit-identical
    inference from production and the oracle — including the
    reciprocity ablation.
    """
    rng = random.Random(seed)
    config = _random_scenario_config(rng)
    run = ScenarioRun(config, cache=ArtifactCache())
    assert_bit_identical(run_object_inference(run), run.inference())

    scenario = run.scenario()
    ablation_obj = object_inference(scenario, require_reciprocity=False)
    ablation_bit = scenario.run_inference(require_reciprocity=False)
    assert ablation_obj.matrix.all_links() == ablation_bit.matrix.all_links()
    assert ablation_obj.matrix.links_by_ixp() == \
        ablation_bit.matrix.links_by_ixp()


def test_backends_identical_at_bench_size(bench_run):
    """Acceptance size: production inference on the europe2013 bench
    scenario is bit-identical to the object oracle."""
    assert_bit_identical(run_object_inference(bench_run),
                         bench_run.inference())


def test_backends_identical_without_passive_or_active():
    """The use_passive / use_active ablations agree with the oracle."""
    run = scenario_run("tiny", cache=ArtifactCache())
    scenario = run.scenario()
    for kwargs in ({"use_passive": False}, {"use_active": False}):
        obj = object_inference(scenario, **kwargs)
        bit = scenario.run_inference(**kwargs)
        assert_bit_identical(obj, bit)


def test_unknown_inference_backend_rejected():
    """No inference-backend knob remains: passing one is rejected."""
    with pytest.raises(TypeError, match="inference_backend"):
        ScenarioRun(get_scenario("europe2013").config("tiny"),
                    inference_backend="object")


# -- the scenario's plane memo -------------------------------------------------

#: The paper's ablations, as ``Scenario.run_inference`` keywords.
ABLATIONS = ({}, {"use_active": False}, {"use_passive": False},
             {"require_reciprocity": False})


def _engine_runs(monkeypatch):
    """A list that grows by one per ``MLPInferenceEngine.run`` call."""
    runs = []
    run = MLPInferenceEngine.run

    def counted(self, *args, **kwargs):
        runs.append(kwargs)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(MLPInferenceEngine, "run", counted)
    return runs


def test_ablations_share_one_plane_memo(monkeypatch):
    """The four ablations collect three times (the reciprocity ablation
    reads the full run's planes) and repeating them collects nothing:
    every call builds a fresh result over the memoised planes, equal to
    the oracle's."""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    runs = _engine_runs(monkeypatch)
    first = [scenario.run_inference(**options) for options in ABLATIONS]
    assert len(runs) == 3
    second = [scenario.run_inference(**options) for options in ABLATIONS]
    assert len(runs) == 3
    full, no_reciprocity = first[0].matrix.planes, first[3].matrix.planes
    assert all(no_reciprocity[name] is plane for name, plane in full.items())
    for options, mine, again in zip(ABLATIONS, first, second):
        assert again is not mine and again.matrix is not mine.matrix
        assert all(again.matrix.planes[name] is plane
                   for name, plane in mine.matrix.planes.items())
        assert identical(again, object_inference(scenario, **options))


def test_plane_cache_invalidated_by_lg_view_change(monkeypatch):
    """A route-server change between two runs (a new announcement, then
    a new member, both visible through its looking glass) empties the
    memo: the next run collects afresh and equals the re-querying
    oracle, and the run after it reads the new memo."""
    from repro.bgp.prefix import Prefix

    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    runs = _engine_runs(monkeypatch)
    scenario.run_inference()
    ixp_name = sorted(scenario.rs_looking_glasses)[0]
    route_server = scenario.route_servers[ixp_name]
    member = route_server.members()[0]
    joiner = min(asn for asn in scenario.graph.asns()
                 if asn not in route_server.member_set())
    changes = (
        lambda: route_server.announce(
            member, Prefix.from_octets(203, 0, 113, 0, 24), (member,)),
        lambda: route_server.add_member(joiner),
    )
    for change in changes:
        change()
        before = len(runs)
        result = scenario.run_inference()
        assert len(runs) == before + 1
        assert identical(result, object_inference(scenario))
        scenario.run_inference()
        assert len(runs) == before + 1
    assert joiner in result.matrix.planes[ixp_name].index.bit_of


def test_plane_cache_misses_after_a_relationship_change(monkeypatch):
    """The engine reads the graph's relationship snapshot (the setter
    rule); a graph change between two runs empties the memo, and the
    rebuilt result equals the oracle's on the changed graph."""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    runs = _engine_runs(monkeypatch)
    scenario.run_inference()
    scenario.run_inference()
    assert len(runs) == 1
    assert scenario.make_engine().relationships is \
        scenario.graph.relationship_map()

    link = scenario.graph.links(LinkType.C2P)[0]
    assert scenario.graph.remove_link(link.a, link.b)
    result = scenario.run_inference()
    assert len(runs) == 2
    assert identical(result, object_inference(scenario))


def test_context_and_graph_pickle_after_inference():
    """Inference leaves the propagation context alone: it holds
    propagation state only, so the persisted propagation artifact
    carries no planes.  The graph's relationship snapshot pickles."""
    run = scenario_run("tiny", cache=ArtifactCache())
    scenario = run.scenario()
    context = run.artifact("propagation")["context"]
    before = pickle.dumps(context)
    for options in ABLATIONS:
        scenario.run_inference(**options)
    assert pickle.dumps(context) == before
    graph = pickle.loads(pickle.dumps(scenario.graph))
    assert list(graph.relationship_map().items()) == \
        list(scenario.graph.relationship_map().items())


def test_table2_fallback_without_table2_figure():
    """ScenarioRun.table2() must work when the analysis suite omits the
    table2 figure (the fallback path feeds the reachability matrix to
    the figure function directly)."""
    from repro.pipeline import AnalysisOptions

    base = scenario_run("tiny", cache=ArtifactCache())
    run = ScenarioRun(base.config, scenario=base.spec, cache=base.cache,
                      analysis_options=AnalysisOptions(figures=("density",)))
    rows = run.table2()
    assert len(rows) == len(run.inference().matrix.planes)


# -- derived-view caches (regression: repeated calls must not re-sort) ---------


def test_result_views_are_memoised():
    result = scenario_run("tiny", cache=ArtifactCache()).inference()
    matrix = result.matrix
    assert matrix.all_links() is matrix.all_links()
    assert matrix.multi_ixp_links() is matrix.multi_ixp_links()
    assert matrix.link_ixps() is matrix.link_ixps()
    assert matrix.peer_counts() is matrix.peer_counts()
    some_ixp = next(iter(matrix.planes))
    if matrix.links_of(some_ixp):
        a, b = matrix.links_of(some_ixp)[0]
        assert some_ixp in matrix.link_ixps()[(a, b)]

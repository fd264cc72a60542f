"""Differential harness: production inference vs the object oracle.

Every registered scenario (at tiny size) and randomized europe2013
regimes (generator-knob strategy mirroring
``tests/runtime/test_batched.py``) must produce **bit-identical**
inference from the production engine (the bitset observation planes)
and the per-IXP object oracle (:mod:`tests.oracle.inference`): links,
per-IXP link sets, Table 2 rows, every member's reachability read off
the planes (mode / listed / provenance / prefix counts), the plane
columns against the oracle's integer-bitmask rule, and active query
spend.  The derived-view caches of the result's matrix must not
re-sort on repeated access.
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


# -- context-level plane cache -------------------------------------------------


def test_bitset_planes_cached_on_context():
    """Repeated bitset runs on one scenario reuse the observation
    planes; ablation keys (use_passive off) add a separate entry."""
    run = scenario_run("tiny", cache=ArtifactCache())
    scenario = run.scenario()
    context = scenario.context
    first = scenario.run_inference()
    entries_after_first = len(context._inference_planes)
    second = scenario.run_inference()
    assert len(context._inference_planes) == entries_after_first
    assert_bit_identical(first, second)
    # The reciprocity ablation shares the planes (applied downstream).
    scenario.run_inference(require_reciprocity=False)
    assert len(context._inference_planes) == entries_after_first
    # A different collection surface is a different key.
    scenario.run_inference(use_passive=False)
    assert len(context._inference_planes) == entries_after_first + 1


def test_plane_cache_invalidated_by_lg_view_change():
    """Mutating route-server state visible through a looking glass
    between runs must not serve stale cached planes: the LG view
    signature in the cache key forces a recollection (a new cache
    entry), keeping production identical to the re-querying object
    oracle."""
    from repro.bgp.prefix import Prefix

    run = scenario_run("tiny", cache=ArtifactCache())
    scenario = run.scenario()
    context = scenario.context
    first = scenario.run_inference()
    assert identical(first, object_inference(scenario))
    entries_before = len(context._inference_planes)

    ixp_name = sorted(scenario.rs_looking_glasses)[0]
    route_server = scenario.route_servers[ixp_name]
    member = route_server.members()[0]
    route_server.announce(member, Prefix.from_octets(203, 0, 113, 0, 24),
                          (member,))

    obj = object_inference(scenario)
    bit = scenario.run_inference()
    # The mutated LG view is a different cache key -> fresh collection.
    assert len(context._inference_planes) == entries_before + 1
    assert identical(obj, bit)


def _recorded_plane_lookups(context, monkeypatch):
    """What each ``cached_inference_planes`` call answers, in order."""
    answers = []
    lookup = context.cached_inference_planes

    def recording(key):
        answers.append(lookup(key))
        return answers[-1]

    monkeypatch.setattr(context, "cached_inference_planes", recording)
    return answers


def test_plane_cache_misses_after_a_relationship_change(monkeypatch):
    """The engine holds the graph's relationship snapshot by identity;
    a graph mutation must still miss the plane cache.  (A live view of
    the graph would match its own stored key and serve planes pinned on
    stale relationships.)"""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    context = scenario.context
    answers = _recorded_plane_lookups(context, monkeypatch)
    scenario.run_inference()
    scenario.run_inference()
    assert answers[-1] is not None
    assert scenario.make_engine().relationships is \
        scenario.graph.relationship_map()
    entries = len(context._inference_planes)

    link = scenario.graph.links(LinkType.C2P)[0]
    assert scenario.graph.remove_link(link.a, link.b)
    scenario.run_inference()
    assert answers[-1] is None
    assert len(context._inference_planes) == entries + 1


def test_caller_relationship_dict_is_copied_and_compared_by_value(
        monkeypatch):
    """A plain dict is copied on the way in and matched by value: equal
    maps share planes, and mutating the caller's dict changes nothing."""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    answers = _recorded_plane_lookups(scenario.context, monkeypatch)
    base = scenario.make_engine()
    relationships = dict(scenario.relationship_map())

    def run_with(relationships):
        engine = MLPInferenceEngine(
            registry=base.registry, rs_members=base.rs_members,
            mappers=base.interpreter.mappers, relationships=relationships,
            context=scenario.context)
        assert engine.relationships is not relationships
        result = engine.run(
            passive_entries=scenario.archive.clean_stable_entries(),
            rs_looking_glasses=scenario.rs_looking_glasses,
            third_party_lgs=scenario.third_party_lgs)
        relationships.clear()
        return result

    first = run_with(relationships)
    assert answers[-1] is None
    second = run_with(dict(scenario.relationship_map()))
    assert answers[-1] is not None
    assert identical(first, second)
    assert identical(scenario.run_inference(), first)
    assert answers[-1] is not None


def test_context_and_graph_pickle_after_inference():
    """The plane cache keys hold the relationship snapshot, so it must
    pickle with the context (a ``types.MappingProxyType`` would not)."""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    scenario.run_inference()
    context, graph = pickle.loads(
        pickle.dumps((scenario.context, scenario.graph)))
    assert len(context._inference_planes) == \
        len(scenario.context._inference_planes)
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

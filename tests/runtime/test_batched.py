"""Differential harness: the production batch path vs frontier vs oracle.

The engine picks its kernel per ``batch_fragments`` call by batch size
(:data:`~repro.bgp.propagation.COMPILED_MIN_ORIGINS`).  Whatever it
picks must reproduce the frontier kernel *exactly* — fragment content
and order, Adj-RIB-In offers, touched order — on arbitrary
policy-annotated topologies, and every kernel must agree with the
object-graph reference oracle (:mod:`tests.oracle.propagation`) on links
and best routes — on every registered scenario at tiny size and on
generator-built internets across randomized regime knobs.  Kernel names follow :mod:`tests.oracle.kernels`: ``frontier``
and ``compiled`` pin one kernel, ``batched`` is the production rule.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp import propagation
from repro.bgp.communities import Community
from repro.bgp.policy import Relationship
from repro.bgp.prefix import Prefix
from repro.bgp.propagation import (
    Adjacency,
    OriginSpec,
    PropagationEngine,
    bidirectional_adjacencies,
)
from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.compiled import (
    BatchedPathStore,
    CompiledPropagator,
    PropagationPlan,
)
from repro.runtime.context import PipelineContext
from repro.runtime.csr import CSRIndex
from repro.runtime.frontier import FrontierPropagator
from repro.scenarios.spec import get_scenario, scenario_names
from repro.topology.generator import GeneratorConfig, InternetGenerator

from tests.oracle.kernels import KERNELS, forced_kernel
from tests.oracle.propagation import (
    ReferencePropagationEngine,
    adjacencies_from_index,
)
from tests.oracle.topology import index_differences, record_index


def random_internet(rng, num_ases=30):
    """A random policy-annotated adjacency set (providers, bilateral and
    RS peering with communities, opaque route servers, siblings)."""
    asns = [64500 + i for i in range(num_ases)]
    adjacencies = []
    linked = set()

    def link(a, b):
        return (min(a, b), max(a, b))

    for i in range(1, num_ases):
        for provider in rng.sample(asns[:i], k=min(i, rng.randint(1, 2))):
            linked.add(link(asns[i], provider))
            adjacencies.extend(bidirectional_adjacencies(
                asns[i], provider, Relationship.PROVIDER))
    for _ in range(num_ases):
        a, b = rng.sample(asns, 2)
        if link(a, b) in linked:
            continue
        linked.add(link(a, b))
        adjacencies.append(Adjacency(a, b, Relationship.PEER))
        adjacencies.append(Adjacency(b, a, Relationship.PEER))
    for _ in range(num_ases // 2):
        a, b = rng.sample(asns, 2)
        if link(a, b) in linked:
            continue
        linked.add(link(a, b))
        transparent = rng.random() < 0.5
        adjacencies.append(Adjacency(
            a, b, Relationship.RS_PEER,
            communities=frozenset({Community(6695, a & 0xFFFF)}),
            via_rs_asn=65010, rs_transparent=transparent))
        adjacencies.append(Adjacency(
            b, a, Relationship.RS_PEER,
            communities=frozenset({Community(6695, b & 0xFFFF)}),
            via_rs_asn=65010, rs_transparent=transparent))
    for _ in range(3):
        a, b = rng.sample(asns, 2)
        if link(a, b) in linked:
            continue
        linked.add(link(a, b))
        adjacencies.append(Adjacency(a, b, Relationship.SIBLING))
        adjacencies.append(Adjacency(b, a, Relationship.SIBLING))
    return asns, adjacencies


def random_origins(rng, asns, count=10):
    origins = []
    for asn in rng.sample(asns, k=min(len(asns), count)):
        communities = frozenset({Community(0, asn & 0xFFFF)}) \
            if rng.random() < 0.3 else frozenset()
        origins.append(OriginSpec(
            asn=asn,
            prefixes=[Prefix.from_octets(
                10, (asn >> 8) & 0xFF, asn & 0xFF, 0, 24)],
            communities=communities))
    return origins


def fragment_key(routes):
    """Order-sensitive content signature of a fragment list."""
    return [(r.asn, r.path, r.communities, r.provenance, r.learned_from)
            for r in routes]


def route_key(route):
    return (route.asn, route.path, route.communities, route.provenance,
            route.learned_from)


def by_observer(routes):
    """Order-insensitive content of a best-route fragment."""
    return {route.asn: route_key(route) for route in routes}


def production_fragments(engine, origins):
    """*origins* through the production rule in two calls: a batch one
    short of the threshold (frontier) and the rest (compiled)."""
    split = propagation.COMPILED_MIN_ORIGINS - 1
    return (engine.batch_fragments(origins[:split])
            + engine.batch_fragments(origins[split:]))


def frontier_engine(adjacencies, **record):
    return PipelineContext.from_adjacencies(adjacencies).engine(**record)


def frontier_fragments(engine, origins):
    with forced_kernel("frontier"):
        return engine.batch_fragments(origins)


# -- exact frontier equivalence ------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 20130507, 424242, 999983])
def test_batched_fragments_bit_identical_to_frontier(seed):
    """Best fragments AND offered (Adj-RIB-In) fragments of the
    production batch path — one batch below the kernel threshold, one at
    or above it — match the frontier kernel exactly, including
    discovery/offer order."""
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(
        rng, asns, count=2 * propagation.COMPILED_MIN_ORIGINS - 1)
    observers = rng.sample(asns, k=12)
    alt = observers[:5]

    frontier = frontier_engine(adjacencies, record_at=observers,
                               record_alternatives_at=alt)
    production = PipelineContext.from_adjacencies(adjacencies).engine(
        record_at=observers, record_alternatives_at=alt)
    for spec, got_f, got_b in zip(origins,
                                  frontier_fragments(frontier, origins),
                                  production_fragments(production, origins)):
        assert fragment_key(got_f[0]) == fragment_key(got_b[0]), \
            (seed, spec.asn, "best")
        assert fragment_key(got_f[1]) == fragment_key(got_b[1]), \
            (seed, spec.asn, "offered")


@pytest.mark.parametrize("seed", [3, 31337])
def test_batched_record_everything_matches_frontier(seed):
    """record_at=None (record every AS) is also bit-identical."""
    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng, num_ases=40)
    origins = random_origins(rng, asns, count=15)
    frontier = frontier_engine(adjacencies)
    production = PipelineContext.from_adjacencies(adjacencies).engine()
    for got_f, got_b in zip(frontier_fragments(frontier, origins),
                            production_fragments(production, origins)):
        assert fragment_key(got_f[0]) == fragment_key(got_b[0])


def test_batched_propagation_result_matches_frontier():
    rng = random.Random(99)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    with forced_kernel("frontier"):
        fast = PropagationEngine(adjacencies).propagate(origins)
    batched = PropagationEngine(adjacencies).propagate(origins)
    assert fast.visible_links() == batched.visible_links()
    for origin in origins:
        for asn in asns:
            route_f = fast.best_route(asn, origin.asn)
            route_b = batched.best_route(asn, origin.asn)
            assert (route_f is None) == (route_b is None)
            if route_f is not None:
                assert fragment_key([route_f]) == fragment_key([route_b])


@pytest.mark.parametrize("name", scenario_names())
def test_production_matches_reference_on_registered_scenarios(name):
    """Every registered scenario's tiny-size propagation artifact equals
    the reference oracle run over the same context: visible links and
    every recorded observer's best route to every origin."""
    from repro.scenarios.events import origin_specs_of, record_sets
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    propagation = run.artifact("propagation")
    record_at, record_alt = record_sets(propagation)
    origins = origin_specs_of(run.artifact("topology").graph)
    production = propagation["propagation"]
    reference = ReferencePropagationEngine.from_context(
        propagation["context"], record_at=record_at,
        record_alternatives_at=record_alt).propagate(origins)
    assert production.visible_links() == reference.visible_links()
    for spec in origins:
        for observer in record_at:
            got = production.best_route(observer, spec.asn)
            want = reference.best_route(observer, spec.asn)
            assert (got is None) == (want is None), (spec.asn, observer)
            if want is not None:
                assert route_key(got) == route_key(want), \
                    (spec.asn, observer)


def test_production_fragments_match_frontier_at_bench_size(bench_run):
    """Acceptance size: the europe2013 bench scenario's full origin set
    through the production rule equals the frontier kernel, best and
    offered fragments alike."""
    from repro.scenarios.events import origin_specs_of, record_sets
    propagation = bench_run.artifact("propagation")
    record_at, record_alt = record_sets(propagation)
    context = propagation["context"]
    origins = origin_specs_of(bench_run.artifact("topology").graph)
    production = [fragments for fragments in
                  propagation["propagation"].recorded_fragments().values()]
    frontier = context.engine(record_at=record_at,
                              record_alternatives_at=record_alt)
    context.clear_propagation_cache()
    assert len(production) == len(origins)
    for spec, got_b, got_f in zip(origins, production,
                                  frontier_fragments(frontier, origins)):
        assert fragment_key(got_b[0]) == fragment_key(got_f[0]), spec.asn
        assert fragment_key(got_b[1]) == fragment_key(got_f[1]), spec.asn


# -- kernel selection ----------------------------------------------------------


@pytest.mark.parametrize("seed", [8, 2024])
def test_kernel_selection_boundary(seed, monkeypatch):
    """A batch of K-1 uncached origins runs the frontier kernel, a batch
    of K (and a full sweep) the compiled kernel, and every batch matches
    the reference oracle's fragments."""
    threshold = propagation.COMPILED_MIN_ORIGINS
    calls = []
    frontier_run = FrontierPropagator.run
    compiled_run = CompiledPropagator.run_batch

    def spy_frontier(self, *args, **kwargs):
        calls.append("frontier")
        return frontier_run(self, *args, **kwargs)

    def spy_compiled(self, *args, **kwargs):
        calls.append("compiled")
        return compiled_run(self, *args, **kwargs)

    monkeypatch.setattr(FrontierPropagator, "run", spy_frontier)
    monkeypatch.setattr(CompiledPropagator, "run_batch", spy_compiled)

    rng = random.Random(seed)
    asns, adjacencies = random_internet(rng, num_ases=40)
    observers = rng.sample(asns, k=15)
    alt = observers[:6]
    origins = random_origins(rng, asns, count=len(asns))
    oracle = ReferencePropagationEngine(
        adjacencies, record_at=observers, record_alternatives_at=alt)

    batches = [(origins[:threshold - 1], ["frontier"] * (threshold - 1)),
               (origins[:threshold], ["compiled"]),
               (origins, ["compiled"])]
    for batch, expected in batches:
        # A fresh context per batch: no cache hits shrink the batch.
        engine = PipelineContext.from_adjacencies(adjacencies).engine(
            record_at=observers, record_alternatives_at=alt)
        calls.clear()
        fragments = engine.batch_fragments(batch)
        assert calls == expected, (len(batch), calls)
        for spec, (best, offered) in zip(batch, fragments):
            want_best, want_offered = oracle.origin_fragments(spec)
            assert by_observer(best) == by_observer(want_best), spec.asn
            # The oracle re-offers unchanged candidates on re-pops; the
            # kernels suppress those exact duplicates.
            assert {route_key(r) for r in offered} == \
                {route_key(r) for r in want_offered}, spec.asn


def test_cache_hits_do_not_count_towards_the_threshold(monkeypatch):
    """Kernel selection counts *uncached* origins only: re-asking for a
    wide batch whose members are memoised except for one runs that one
    origin on the frontier kernel."""
    rng = random.Random(15)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns, count=12)
    engine = PipelineContext.from_adjacencies(adjacencies).engine(
        record_at=asns[:10])
    engine.batch_fragments(origins[:-1])
    calls = []
    frontier_run = FrontierPropagator.run

    def spy_frontier(self, *args, **kwargs):
        calls.append("frontier")
        return frontier_run(self, *args, **kwargs)

    monkeypatch.setattr(FrontierPropagator, "run", spy_frontier)
    monkeypatch.setattr(CompiledPropagator, "run_batch",
                        lambda *args, **kwargs: pytest.fail("compiled ran"))
    engine.batch_fragments(origins)
    assert calls == ["frontier"]


def test_route_cache_shared_by_both_kernels():
    """Fragments memoised by one kernel answer the other: the cache key
    carries no kernel, because both kernels produce identical blocks."""
    rng = random.Random(14)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns, count=3)
    context = PipelineContext.from_adjacencies(adjacencies)
    observers = asns[:8]
    with forced_kernel("compiled"):
        first = context.engine(record_at=observers).batch_fragments(origins)
    assert len(context.route_cache) == len(origins)
    hits = context.route_cache.hits
    with forced_kernel("frontier"):
        again = context.engine(record_at=observers).batch_fragments(origins)
    assert len(context.route_cache) == len(origins)
    assert context.route_cache.hits == hits + len(origins)
    assert all(a is b for a, b in zip(first, again))


# -- property-based kernel/oracle differential ---------------------------------


def _random_generator_config(rng) -> GeneratorConfig:
    """A seeded random regime: phase selection plus hypergiant /
    private-peering / bilateral knobs."""
    from repro.topology.phases import DEFAULT_PHASE_ORDER
    phases = list(DEFAULT_PHASE_ORDER)
    for optional in ("sibling-links", "backbone-peering",
                     "private-peering"):
        if rng.random() < 0.35:
            phases.remove(optional)
    low = rng.randint(1, 3)
    return GeneratorConfig(
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


@pytest.mark.parametrize("seed", [2013, 4242, 77])
def test_backends_agree_on_generated_internets(seed):
    """Every kernel (frontier, production rule, compiled) and the
    reference oracle produce identical links, visibility sets and best
    routes on generator-built internets across randomized regime
    knobs."""
    rng = random.Random(seed)
    config = _random_generator_config(rng)
    internet = InternetGenerator(config).generate()
    graph = internet.graph
    origin_pool = [node.asn for node in graph.nodes() if node.prefixes]
    origins = [OriginSpec(asn=asn, prefixes=list(graph.prefixes_of(asn)))
               for asn in sorted(rng.sample(origin_pool,
                                            min(25, len(origin_pool))))]
    observers = sorted(rng.sample(graph.asns(), k=min(30, len(graph))))

    results = {}
    for kernel in KERNELS:
        with forced_kernel(kernel):
            context = PipelineContext.from_graph(graph)
            results[kernel] = context.engine(
                record_at=observers).propagate(origins)
    results["reference"] = ReferencePropagationEngine.from_context(
        PipelineContext.from_graph(graph),
        record_at=observers).propagate(origins)

    frontier = results["frontier"]
    for name, result in results.items():
        assert frontier.visible_links() == result.visible_links(), \
            (seed, name)
    for origin in origins:
        for asn in observers:
            route_f = frontier.best_route(asn, origin.asn)
            for name, result in results.items():
                route = result.best_route(asn, origin.asn)
                assert (route_f is None) == (route is None), (seed, name)
                if route_f is not None:
                    assert fragment_key([route_f]) == \
                        fragment_key([route]), (seed, name, origin.asn, asn)


# -- reference oracle plumbing -------------------------------------------------


@pytest.mark.parametrize("seed, num_ases", [
    (1, 30), (7, 30), (20130507, 30), (424242, 30), (999983, 30),
    (3, 40), (31337, 40)])
def test_from_adjacencies_matches_record_oracle(seed, num_ases):
    """The column assembler over adjacency records equals the
    record-by-record build field by field, on random topologies with
    RS-peer edges through opaque (non-transparent) route servers."""
    _, adjacencies = random_internet(random.Random(seed), num_ases=num_ases)
    assert any(adj.via_rs_asn is not None and not adj.rs_transparent
               for adj in adjacencies)
    assert index_differences(CSRIndex.from_adjacencies(adjacencies),
                             record_index(adjacencies)) == []


def test_adjacencies_from_index_round_trip():
    """Index -> adjacency reconstruction preserves propagation semantics
    (same links and routes through a freshly built engine)."""
    rng = random.Random(5)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns)
    context = PipelineContext.from_adjacencies(adjacencies)
    rebuilt = adjacencies_from_index(context.index)
    assert len(rebuilt) == len(adjacencies)
    direct = PropagationEngine(adjacencies).propagate(origins)
    rebuilt_result = PropagationEngine(rebuilt).propagate(origins)
    assert direct.visible_links() == rebuilt_result.visible_links()


def test_reference_backend_selector():
    """The reference oracle built over a production context agrees with
    the production engine."""
    rng = random.Random(6)
    asns, adjacencies = random_internet(rng)
    origins = random_origins(rng, asns, count=5)
    context = PipelineContext.from_adjacencies(adjacencies)
    production = context.engine().propagate(origins)
    reference = ReferencePropagationEngine.from_context(
        context).propagate(origins)
    assert production.visible_links() == reference.visible_links()


# -- unit-level pieces ---------------------------------------------------------


def test_unknown_backend_rejected():
    """No backend knob remains: the engine and the context reject one."""
    adjacencies = [Adjacency(1, 2, Relationship.PEER),
                   Adjacency(2, 1, Relationship.PEER)]
    with pytest.raises(TypeError, match="backend"):
        PropagationEngine(adjacencies, backend="compiled")
    with pytest.raises(TypeError, match="backend"):
        PipelineContext.from_adjacencies(adjacencies, backend="compiled")


def test_plan_is_cached_on_context():
    rng = random.Random(11)
    _asns, adjacencies = random_internet(rng)
    context = PipelineContext.from_adjacencies(adjacencies)
    plan = context.plan
    assert plan is context.plan
    assert isinstance(plan, PropagationPlan)
    summary = plan.summary()
    assert summary["nodes"] == context.index.num_nodes
    assert (summary["customer_phase_edges"]
            == context.index.customer_edges.num_edges)


def test_batched_path_store_matches_tuple_semantics():
    import numpy as np
    store = BatchedPathStore(capacity=2)
    ids = store.alloc(np.array([10, 20]), np.array([-1, -1]))
    extended = store.alloc(np.array([30, 40]),
                           np.array([ids[0], ids[1]]))
    assert store.materialize(int(extended[0])) == (30, 10)
    assert store.materialize(int(extended[1])) == (40, 20)
    assert store.materialize(int(ids[0])) == (10,)
    assert store.materialize(-1) == ()
    assert len(store) == 4

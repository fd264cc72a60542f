"""Differential harness: columnar observation plane vs object oracle.

The columnar collection pipeline (``RibEntryTable``-backed
``CollectorArchive``, vantage-point ``export_rows``, the propagation
``ObservationIndex`` fast paths and bulk looking-glass loads) must be
*bit-identical* to the retained object implementations — same entries,
same orderings, same RNG draws, same query tables — on generator-built
internets across randomized regime knobs, with the propagation engine
pinned to each kernel in turn (:mod:`tests.oracle.kernels`).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.bgp.propagation import OriginSpec
from repro.collectors.archive import CollectorArchive, MeasurementWindow
from repro.collectors.route_collector import RouteCollector
from repro.collectors.vantage_point import FeedType, VantagePoint
from repro.ixp.looking_glass import ASLookingGlass, LGRoute
from repro.runtime.context import PipelineContext
from repro.topology.generator import GeneratorConfig, InternetGenerator

from tests.oracle.kernels import KERNELS, forced_kernel

PROPAGATION_BACKENDS = KERNELS


def _random_generator_config(rng) -> GeneratorConfig:
    """A seeded random regime (same spirit as the kernel differential
    suite): scale plus hypergiant / peering knobs."""
    return GeneratorConfig(
        seed=rng.randrange(1 << 30),
        scale=rng.uniform(0.05, 0.09),
        ixp_member_scale=rng.uniform(0.04, 0.08),
        sibling_pair_fraction=rng.choice([0.0, 0.01, 0.05]),
        num_hypergiants=rng.randint(2, 5),
        hypergiant_ixp_presence=rng.uniform(0.3, 1.0),
        bilateral_peer_range=(1, 1 + rng.randint(0, 5)),
        content_multiplier=rng.choice([0.8, 1.0, 1.6]),
    )


def _build_observation(seed: int, backend: str):
    """A propagated random internet plus vantage-point and validation
    host draws: the inputs both collection implementations consume."""
    rng = random.Random(seed)
    config = _random_generator_config(rng)
    internet = InternetGenerator(config).generate()
    graph = internet.graph
    origin_pool = sorted(node.asn for node in graph.nodes() if node.prefixes)
    origins = [OriginSpec(asn=asn, prefixes=list(graph.prefixes_of(asn)))
               for asn in sorted(rng.sample(origin_pool,
                                            min(20, len(origin_pool))))]
    asns = sorted(graph.asns())
    vantage_asns = sorted(rng.sample(asns, min(12, len(asns))))
    hosts = sorted(rng.sample(asns, min(6, len(asns))))
    record_at = sorted(set(vantage_asns) | set(hosts))
    context = PipelineContext.from_graph(graph)
    engine = context.engine(record_at=record_at,
                            record_alternatives_at=hosts)
    with forced_kernel(backend):
        propagation = engine.propagate(origins)
    feeds = [(asn, FeedType.FULL if index % 3 == 0
              else FeedType.CUSTOMER_ONLY)
             for index, asn in enumerate(vantage_asns)]
    return propagation, feeds, hosts


def _build_archive(propagation, feeds, seed: int, columnar,
                   transient_fraction: float = 0.1) -> CollectorArchive:
    """One archive over two collectors, like the scenario layer builds —
    fresh VantagePoint objects per archive so nothing is shared."""
    route_views = RouteCollector(name="route-views")
    ripe_ris = RouteCollector(name="rrc00")
    for index, (asn, feed_type) in enumerate(feeds):
        collector = route_views if index % 2 == 0 else ripe_ris
        collector.add_vantage_point(VantagePoint(asn=asn,
                                                 feed_type=feed_type))
    archive = CollectorArchive([route_views, ripe_ris],
                               window=MeasurementWindow(num_days=5),
                               seed=seed, columnar=columnar)
    archive.collect(propagation, transient_fraction=transient_fraction)
    return archive


def entry_key(entry):
    """Full field-wise signature of a RIB entry."""
    return (entry.peer_asn, str(entry.prefix), entry.as_path.asns,
            tuple(sorted(c.value for c in entry.communities)),
            entry.collector, entry.timestamp)


def entry_keys(entries):
    return [entry_key(entry) for entry in entries]


def lg_table(lg: ASLookingGlass):
    """Order-sensitive query-table signature across every prefix."""
    rows = []
    for prefix in lg.prefixes():
        for route in lg.show_ip_bgp_prefix(prefix):
            rows.append((str(prefix), route.as_path,
                         tuple(sorted(c.value for c in route.communities)),
                         route.best, route.learned_from))
    lg.counter.reset()
    return rows


# -- archive: columnar vs object oracle ---------------------------------------


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
@pytest.mark.parametrize("seed", (2013, 8451))
def test_columnar_archive_matches_object_oracle(seed, backend):
    """Entries, per-day dumps, stable/clean-stable selections, synthetic
    updates and visible links are field-identical and order-identical
    between the column store and the object archive, on every
    propagation kernel."""
    propagation, feeds, _hosts = _build_observation(seed, backend)
    columnar = _build_archive(propagation, feeds, seed, columnar=None)
    oracle = _build_archive(propagation, feeds, seed, columnar=False)
    assert columnar._table is not None, "columnar collect did not engage"
    assert oracle._table is None

    assert entry_keys(columnar.all_entries()) == \
        entry_keys(oracle.all_entries())
    for day in columnar.window.days():
        assert entry_keys(columnar.dump_for_day(day)) == \
            entry_keys(oracle.dump_for_day(day)), day
    for min_days in (1, 2, 3, 99):
        assert entry_keys(columnar.stable_entries(min_days)) == \
            entry_keys(oracle.stable_entries(min_days)), min_days
        assert entry_keys(columnar.clean_stable_entries(min_days)) == \
            entry_keys(oracle.clean_stable_entries(min_days)), min_days
    assert [(u.prefix, u.as_path.asns, u.timestamp, u.peer_asn)
            for u in columnar.updates()] == \
        [(u.prefix, u.as_path.asns, u.timestamp, u.peer_asn)
         for u in oracle.updates()]
    assert columnar.visible_as_links() == oracle.visible_as_links()


@pytest.mark.parametrize("seed", (31337,))
def test_columnar_archive_matches_object_fallback_path(seed, monkeypatch):
    """When the propagation result cannot serve columns (the no-numpy
    object-fragment path), the columnar archive transparently falls back
    to the object collect and still matches the oracle."""
    propagation, feeds, _hosts = _build_observation(seed, "frontier")
    monkeypatch.setattr(type(propagation), "iter_best_columns_at",
                        lambda self, asn: None)
    fallback = _build_archive(propagation, feeds, seed, columnar=None)
    oracle = _build_archive(propagation, feeds, seed, columnar=False)
    assert fallback._table is None, "fallback should demote to objects"
    assert entry_keys(fallback.all_entries()) == \
        entry_keys(oracle.all_entries())
    assert entry_keys(fallback.clean_stable_entries(2)) == \
        entry_keys(oracle.clean_stable_entries(2))


def test_columnar_archive_pickle_roundtrip_preserves_entries():
    """Pickled archives reload with identical entries and stable
    selections (lazy row views and interners rebuild)."""
    propagation, feeds, _hosts = _build_observation(424242, "frontier")
    archive = _build_archive(propagation, feeds, 424242, columnar=None)
    clone = pickle.loads(pickle.dumps(archive))
    assert entry_keys(clone.all_entries()) == \
        entry_keys(archive.all_entries())
    assert entry_keys(clone.clean_stable_entries(2)) == \
        entry_keys(archive.clean_stable_entries(2))
    assert clone.visible_as_links() == archive.visible_as_links()


def test_shared_aspath_identity_feeds_passive_memo():
    """Within the column store one interned ``ASPath`` object backs every
    entry with that path — the identity-keyed memo in the passive plane
    depends on exactly this sharing."""
    propagation, feeds, _hosts = _build_observation(77, "frontier")
    archive = _build_archive(propagation, feeds, 77, columnar=None)
    by_asns = {}
    for entry in archive.all_entries():
        seen = by_asns.setdefault(entry.as_path.asns, entry.as_path)
        assert seen is entry.as_path
    # The memoised clean-stable list is returned as the same object.
    assert archive.clean_stable_entries(2) is archive.clean_stable_entries(2)


# -- looking glasses: fused bulk loads vs route-by-route ----------------------


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
@pytest.mark.parametrize("seed", (4242,))
def test_bulk_lg_loads_match_route_by_route(seed, backend):
    """A validation LG fed by ``load_route_blocks`` from
    ``observation_groups_at`` answers every query identically to one fed
    route-by-route from ``all_paths`` — the exact object loop the fused
    scenario stage replaced."""
    propagation, _feeds, hosts = _build_observation(seed, backend)
    checked = 0
    for asn in hosts:
        groups = propagation.observation_groups_at(asn)
        assert groups is not None, "block-backed result must serve groups"
        fused = ASLookingGlass(asn=asn, display_all_paths=True)
        for origin, block, rows in groups:
            prefixes = propagation.origin_spec(origin).prefixes
            if prefixes:
                fused.load_route_blocks(prefixes, block, rows)
        oracle = ASLookingGlass(asn=asn, display_all_paths=True)
        for origin in propagation.origins():
            routes = propagation.all_paths(asn, origin)
            if not routes:
                continue
            prefixes = propagation.origin_spec(origin).prefixes
            best_key = min(range(len(routes)),
                           key=lambda i: (routes[i].provenance,
                                          len(routes[i].path)))
            for prefix in prefixes:
                for index, route in enumerate(routes):
                    oracle.load_route(LGRoute(
                        prefix=prefix, as_path=route.path,
                        communities=route.communities,
                        best=(index == best_key),
                        learned_from=route.learned_from))
        assert fused.prefixes() == oracle.prefixes(), asn
        assert lg_table(fused) == lg_table(oracle), asn
        checked += len(fused.prefixes())
    assert checked, "differential never exercised a populated LG"


def test_bulk_lg_interleaves_with_eager_loads():
    """Bulk groups flush correctly when eager operations interleave:
    load_route after load_route_blocks, then mark_best_paths."""
    propagation, _feeds, hosts = _build_observation(99, "frontier")
    asn = hosts[0]
    groups = propagation.observation_groups_at(asn)
    assert groups is not None
    lg = ASLookingGlass(asn=asn, display_all_paths=True)
    oracle = ASLookingGlass(asn=asn, display_all_paths=True)
    extra = LGRoute(prefix=propagation.origin_spec(
        propagation.origins()[0]).prefixes[0],
        as_path=(65001, 65000), best=False)
    for origin, block, rows in groups:
        prefixes = propagation.origin_spec(origin).prefixes
        if prefixes:
            lg.load_route_blocks(prefixes, block, rows)
            for prefix in prefixes:
                for index, row in enumerate(rows):
                    oracle.load_route(LGRoute(
                        prefix=prefix, as_path=block.path(row),
                        communities=block.communities_at(row),
                        best=(index == 0),
                        learned_from=block.learned_from_at(row)))
    lg.load_route(extra)
    oracle.load_route(extra)
    assert not lg._groups, "eager load must flush pending groups"
    lg.mark_best_paths()
    oracle.mark_best_paths()
    assert lg_table(lg) == lg_table(oracle)


# -- propagation fast paths ----------------------------------------------------


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
def test_observation_index_fast_paths_match_fold(backend):
    """``all_paths``/``best_route`` served from the ObservationIndex are
    identical — as objects, not just values — to the folded-dict answers
    the object walk produces."""
    propagation, _feeds, hosts = _build_observation(555, backend)
    origins = propagation.origins()
    for asn in hosts:
        for origin in origins:
            fast = propagation.all_paths(asn, origin)
            propagation._ensure_indexed()
            index = propagation._observation_index()
            assert index is not None
            slow_best = propagation._best.get(asn, {}).get(origin)
            assert propagation.best_route(asn, origin) is slow_best
            offered = propagation._alternatives.get(asn, {}).get(origin)
            if offered is None:
                expected = [slow_best] if slow_best is not None else []
            else:
                expected = sorted(
                    offered, key=lambda r: (r.provenance, len(r.path),
                                            r.learned_from or -1))
            assert [id(r) for r in fast] == [id(r) for r in expected], \
                (asn, origin)

"""Differential harness: the columnar observation plane vs the oracles.

Production builds every observation from route-block columns: the
:class:`PropagationResult` readers answer from its ``ObservationIndex``,
the ``RibEntryTable``-backed ``CollectorArchive`` collects the feeds
``gather_feeds`` slices from that index, and validation looking
glasses load an observer's whole view at once (``observer_view``).  Each must be *bit-identical* to the seed's
object implementation kept in :mod:`tests.oracle` — the dict-fold
``ObjectResult``, the object archive and the route-by-route looking
glass — with the same entries, orderings, RNG draws and query tables,
on generator-built internets across randomized regime knobs, with the
propagation engine pinned to each kernel in turn
(:mod:`tests.oracle.kernels`).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.propagation import OriginSpec
from repro.collectors.archive import (
    ITER_CHUNK,
    CollectorArchive,
    MeasurementWindow,
)
from repro.collectors.route_collector import RouteCollector
from repro.collectors.vantage_point import FeedType, VantagePoint
from repro.ixp.looking_glass import ASLookingGlass, LGRoute
from repro.runtime.context import PipelineContext
from repro.topology.generator import GeneratorConfig, InternetGenerator

from tests.oracle.kernels import KERNELS, forced_kernel
from tests.oracle.observation import (
    ObjectArchive,
    all_entries,
    dump_for_day,
    dump_from_rows,
    route_by_route_lg,
)
from tests.oracle.propagation import (
    all_paths,
    best_route,
    object_result,
    origin_spec,
    result_observers,
)

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
    host draws: the inputs both observation implementations consume.

    Returns the production result, the oracle :class:`ObjectResult`
    over the same context and recording sets, the vantage-point feeds
    and the alternative-recording (validation) hosts.
    """
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
    oracle = object_result(context, origins, record_at=record_at,
                           record_alternatives_at=hosts)
    feeds = [(asn, FeedType.FULL if index % 3 == 0
              else FeedType.CUSTOMER_ONLY)
             for index, asn in enumerate(vantage_asns)]
    return propagation, oracle, feeds, hosts


def _collectors(feeds):
    """Two collectors like the scenario layer builds — fresh
    VantagePoint objects per archive so nothing is shared."""
    route_views = RouteCollector(name="route-views")
    ripe_ris = RouteCollector(name="rrc00")
    for index, (asn, feed_type) in enumerate(feeds):
        collector = route_views if index % 2 == 0 else ripe_ris
        collector.add_vantage_point(VantagePoint(asn=asn,
                                                 feed_type=feed_type))
    return [route_views, ripe_ris]


def _build_archive(propagation, feeds, seed: int,
                   transient_fraction: float = 0.1) -> CollectorArchive:
    archive = CollectorArchive(_collectors(feeds),
                               window=MeasurementWindow(num_days=5),
                               seed=seed)
    archive.collect(propagation, transient_fraction=transient_fraction)
    return archive


def _build_oracle_archive(oracle, feeds, seed: int,
                          transient_fraction: float = 0.1) -> ObjectArchive:
    archive = ObjectArchive(_collectors(feeds),
                            window=MeasurementWindow(num_days=5), seed=seed)
    archive.collect(oracle, transient_fraction=transient_fraction)
    return archive


def route_key(route):
    """Full field-wise signature of a propagated route."""
    return (route.asn, route.path, route.communities, route.provenance,
            route.learned_from)


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


# -- propagation result: ObservationIndex readers vs the dict fold ------------


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
def test_observation_index_fast_paths_match_fold(backend):
    """``all_paths``/``best_route`` read from the production result's
    recorded blocks equal the oracle's dict-fold answers for every
    (host, origin) pair, including pairs the result never recorded
    (the looking-glass references below build on them)."""
    propagation, oracle, _feeds, hosts = _build_observation(555, backend)
    outsider = -1  # records nothing
    for asn in hosts + [outsider]:
        for origin in oracle.origins() + [outsider]:
            best = best_route(propagation, asn, origin)
            want = best_route(oracle, asn, origin)
            assert (best is None) == (want is None), (asn, origin)
            if want is not None:
                assert route_key(best) == route_key(want), (asn, origin)
            assert [route_key(r) for r in all_paths(propagation, asn, origin)] \
                == [route_key(r) for r in all_paths(oracle, asn, origin)], \
                (asn, origin)


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
@pytest.mark.parametrize("seed", (555, 2013, 8451))
def test_result_readers_match_object_result(seed, backend):
    """Every other reader of the columnar result answers exactly like
    the oracle's dict fold: same origins and observers in the same
    order, same best routes per observer in the same origin order, same
    links and same recorded fragments."""
    propagation, oracle, feeds, hosts = _build_observation(seed, backend)
    vantage_asns = [asn for asn, _feed in feeds]
    outsider = -1  # records nothing
    assert propagation.origins() == oracle.origins()
    assert result_observers(propagation) == result_observers(oracle)

    for observer in result_observers(propagation) + [outsider]:
        got = [(origin, route_key(route)) for origin, route
               in propagation.iter_routes_at(observer)]
        want = [(origin, route_key(route)) for origin, route
                in oracle.iter_routes_at(observer)]
        assert got == want, observer
        routes = propagation.routes_at(observer)
        assert list(routes) == list(oracle.routes_at(observer)), observer
        assert {origin: route_key(route)
                for origin, route in routes.items()} == \
            dict(want), observer

    for observers in (None, [], vantage_asns, hosts, [outsider]):
        assert propagation.visible_links(observers) == \
            oracle.visible_links(observers), observers

    got_fragments = propagation.recorded_fragments()
    want_fragments = oracle.recorded_fragments()
    assert list(got_fragments) == list(want_fragments)
    for origin, (best, offered) in got_fragments.items():
        want_best, want_offered = want_fragments[origin]
        assert [route_key(r) for r in best] == \
            [route_key(r) for r in want_best], origin
        assert [route_key(r) for r in offered] == \
            [route_key(r) for r in want_offered], origin


def test_empty_result_answers_from_an_empty_index():
    """A result with no recorded origin answers every reader with an
    empty value, never None."""
    from repro.bgp.propagation import PropagationResult
    result = PropagationResult()
    assert result.origins() == [] and result_observers(result) == []
    assert result.recorded_fragments() == {}
    assert result.visible_links() == set()
    assert result.visible_links([1, 2]) == set()
    assert result.iter_best_columns_at(1) == []
    assert result.iter_routes_at(1) == []
    assert result.routes_at(1) == {}
    assert len(result.observer_view(1)) == 0
    assert all_paths(result, 1, 2) == []
    assert best_route(result, 1, 2) is None


# -- archive: column store vs object oracle ------------------------------------


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
@pytest.mark.parametrize("seed", (2013, 8451))
def test_columnar_archive_matches_object_oracle(seed, backend):
    """Entries, per-day dumps, stable/clean-stable selections and
    visible links are field-identical and order-identical
    between the column store over the production result and the object
    archive over the oracle result, on every propagation kernel."""
    propagation, oracle_result, feeds, _hosts = \
        _build_observation(seed, backend)
    columnar = _build_archive(propagation, feeds, seed)
    oracle = _build_oracle_archive(oracle_result, feeds, seed)

    assert entry_keys(all_entries(columnar)) == \
        entry_keys(all_entries(oracle))
    for day in columnar.window.days():
        assert entry_keys(dump_for_day(columnar, day)) == \
            entry_keys(dump_for_day(oracle, day)), day
    for min_days in (1, 2, 3, 99):
        assert entry_keys(columnar.stable_entries(min_days)) == \
            entry_keys(oracle.stable_entries(min_days)), min_days
        assert entry_keys(columnar.clean_stable_entries(min_days)) == \
            entry_keys(oracle.clean_stable_entries(min_days)), min_days
    assert columnar.visible_as_links() == oracle.visible_as_links()


def test_second_collect_is_rejected():
    """An archive holds one window of one result: collecting again
    raises and leaves the archived entries untouched."""
    propagation, _oracle, feeds, _hosts = _build_observation(2013,
                                                             "frontier")
    archive = _build_archive(propagation, feeds, 2013)
    entries = entry_keys(all_entries(archive))
    stable = archive.stable_entries(2)
    with pytest.raises(ValueError, match="already collected"):
        archive.collect(propagation)
    assert entry_keys(all_entries(archive)) == entries
    assert archive.stable_entries(2).rows.tolist() == stable.rows.tolist()


def test_columnar_archive_pickle_roundtrip_preserves_entries():
    """Pickled archives reload with identical entries and stable
    selections (lazy row views and interners rebuild)."""
    propagation, _oracle, feeds, _hosts = _build_observation(424242,
                                                             "frontier")
    archive = _build_archive(propagation, feeds, 424242)
    clone = pickle.loads(pickle.dumps(archive))
    assert entry_keys(all_entries(clone)) == \
        entry_keys(all_entries(archive))
    assert entry_keys(clone.clean_stable_entries(2)) == \
        entry_keys(archive.clean_stable_entries(2))
    assert clone.visible_as_links() == archive.visible_as_links()


def test_shared_aspath_identity_feeds_passive_memo():
    """Within the column store one interned ``ASPath`` object backs every
    entry with that path — the identity-keyed memo in the passive plane
    depends on exactly this sharing."""
    propagation, _oracle, feeds, _hosts = _build_observation(77, "frontier")
    archive = _build_archive(propagation, feeds, 77)
    by_asns = {}
    for entry in all_entries(archive):
        seen = by_asns.setdefault(entry.as_path.asns, entry.as_path)
        assert seen is entry.as_path
    # The memoised clean-stable list is returned as the same object.
    assert archive.clean_stable_entries(2) is archive.clean_stable_entries(2)


def test_stable_view_iterates_a_chunk_at_a_time():
    """Iterating a stable view builds its entries one chunk of rows at
    a time: the first entry of a fresh table builds one chunk, not the
    view, and the whole iteration equals the sliced view."""
    archive = CollectorArchive([RouteCollector(name="hand-made")],
                               window=MeasurementWindow(num_days=1))
    archive.record(dump_from_rows(
        (100, Prefix.from_octets(10, i // 256, i % 256, 0, 24), (100, 200),
         frozenset(), "hand-made")
        for i in range(3 * ITER_CHUNK)))
    view = archive.stable_entries(1)
    assert len(view) == 3 * ITER_CHUNK
    first = next(iter(view))
    assert len(view.table._entries) <= ITER_CHUNK
    assert first is view[0]
    assert list(view) == view[:]


# -- looking glasses: bulk loads vs route-by-route -----------------------------


@pytest.mark.parametrize("backend", PROPAGATION_BACKENDS)
@pytest.mark.parametrize("seed", (4242,))
def test_bulk_lg_loads_match_route_by_route(seed, backend):
    """A validation LG fed by ``load_view`` from ``observer_view``
    (what the scenario's viewpoints stage does) answers every query
    identically to one fed route by route from the oracle result's
    ``all_paths``."""
    propagation, oracle_result, _feeds, hosts = \
        _build_observation(seed, backend)
    checked = 0
    for asn in hosts:
        fused = ASLookingGlass(asn=asn, display_all_paths=True)
        fused.load_view(propagation.observer_view(asn))
        oracle = route_by_route_lg(oracle_result, asn)
        assert fused.prefixes() == oracle.prefixes(), asn
        assert lg_table(fused) == lg_table(oracle), asn
        checked += len(fused.prefixes())
    assert checked, "differential never exercised a populated LG"


def test_bulk_lg_refuses_a_second_load():
    """A looking glass is loaded route by route or from one bulk view,
    never both: a second load raises and leaves the view as it was."""
    propagation, oracle_result, _feeds, hosts = \
        _build_observation(99, "frontier")
    asn = hosts[0]
    view = propagation.observer_view(asn)
    first = origin_spec(propagation, propagation.origins()[0])
    extra = LGRoute(prefix=first.prefixes[0],
        as_path=(65001, 65000), best=False)
    lg = ASLookingGlass(asn=asn, display_all_paths=True)
    lg.load_view(view)
    with pytest.raises(ValueError, match="holds a bulk view"):
        lg.load_route(extra)
    with pytest.raises(ValueError, match="already holds a view"):
        lg.load_view(view)
    eager = ASLookingGlass(asn=asn, display_all_paths=True)
    eager.load_route(extra)
    with pytest.raises(ValueError, match="already holds a view"):
        eager.load_view(view)
    assert lg_table(eager) == [(str(extra.prefix), extra.as_path, (),
                                False, None)]
    oracle = route_by_route_lg(oracle_result, asn)
    assert lg_table(lg) == lg_table(oracle)

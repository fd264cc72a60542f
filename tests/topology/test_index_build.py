"""The CSR index build against the record oracle.

:meth:`ASGraph.build_index` assembles the index from one pass over the
graph's links; :mod:`tests.oracle.topology` keeps the record-by-record
build (two ``Adjacency`` objects per link, one record per adjacency, a
``list.sort`` per phase).  :func:`index_differences` compares them field
by field — node ids, every phase column including the bag ids, the bag
store, ``num_edges`` and ``summary()`` — on every registered scenario at
tiny, with the scenario's route-server community provider and without.
The seeded-mutation walk of ``test_typed_adjacency.py`` makes the same
comparison on its mutated graphs.
"""

from __future__ import annotations

import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.events import rs_community_provider
from repro.scenarios.spec import get_scenario, scenario_names

from tests.oracle.topology import graph_record_index, index_differences


@pytest.mark.parametrize("name", scenario_names())
def test_build_index_matches_record_oracle(name):
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    graph = run.artifact("topology").graph
    route_servers = run.artifact("ixps")["route_servers"]
    calls = []

    def recording(provider):
        def wrapped(asn, ixp):
            calls.append((asn, ixp))
            return provider(asn, ixp)
        return wrapped

    index = graph.build_index(
        recording(rs_community_provider(route_servers)))
    production_calls, calls[:] = list(calls), []
    oracle = graph_record_index(
        graph, recording(rs_community_provider(route_servers)))
    assert index_differences(index, oracle) == []
    # The provider is called once per RS-link end, in the same order.
    assert production_calls == calls
    assert len(index.bags) > 1, "no route-server communities attached"
    assert index_differences(graph.build_index(),
                             graph_record_index(graph)) == []

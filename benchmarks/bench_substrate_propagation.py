"""Substrate benchmark: the valley-free propagation engine.

Not a paper table, but the substrate every passive measurement depends
on; benchmarked so regressions in the hot path are visible.
"""

from repro.bgp.propagation import OriginSpec
from repro.runtime.context import PipelineContext


def test_propagation_engine_throughput(scenario, benchmark):
    graph = scenario.graph
    observers = [vp.asn for vp in scenario.vantage_points]
    origins = [OriginSpec(asn=node.asn, prefixes=list(node.prefixes))
               for node in list(graph.nodes())[:120] if node.prefixes]

    def propagate():
        engine = PipelineContext.from_graph(graph).engine(
            record_at=observers)
        return engine.propagate(origins)

    result = benchmark.pedantic(propagate, rounds=1, iterations=1)
    assert result.origins()
    assert any(result.routes_at(observer) for observer in observers)

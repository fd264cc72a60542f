"""Section 4.3: querying cost and the prefix-selection optimisations.

Reproduces the cost comparison (exhaustive vs 10%-sampled vs shared-prefix
optimised vs passive-assisted, equations 1 and 2) for the largest IXP with
a route-server looking glass.
"""

from repro.core.passive import PassiveInference
from repro.core.query_cost import QueryCostModel


def test_query_cost_breakdown(scenario, inference, benchmark):
    name = max(scenario.rs_looking_glasses,
               key=lambda n: len(scenario.route_servers[n].members()))
    route_server = scenario.route_servers[name]
    announced = {asn: route_server.announced_prefixes(asn)
                 for asn in route_server.members()}
    passive_members = inference.matrix.planes[name].passive_members

    def breakdown():
        model = QueryCostModel(name, announced)
        return model.cost_breakdown(passive_members=passive_members)

    cost = benchmark(breakdown)
    print(f"\nSection 4.3 — querying cost at {name} "
          f"({cost.num_members} RS members)")
    print(f"  exhaustive (all prefixes):      {cost.exhaustive}")
    print(f"  sampled (eq. 1, 10% cap 100):   {cost.sampled}")
    print(f"  optimised (shared prefixes):    {cost.optimised}")
    print(f"  with passive data (eq. 2):      {cost.with_passive}")
    print(f"  exhaustive / optimised:         "
          f"{cost.exhaustive_over_optimised:.1f}x  (paper: ~18x)")
    duration = QueryCostModel.measurement_duration(cost.with_passive,
                                                   seconds_per_query=10)
    print(f"  wall-clock at 1 query / 10 s:   {duration / 3600:.2f} h "
          f"(paper: < 17 h for all IXPs in parallel)")

    assert cost.exhaustive >= cost.sampled >= cost.optimised >= 1
    assert cost.with_passive <= cost.optimised
    assert cost.exhaustive_over_optimised > 1.5

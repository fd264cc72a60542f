#!/usr/bin/env python3
"""Peering-policy report: sections 5.2-5.5 on the synthetic ecosystem.

Joins the inferred multilateral peering fabric with the PeeringDB-style
registry to reproduce the policy analyses: route-server participation by
policy (figure 9), multi-IXP behaviour (figure 10), export openness
(figure 11), peering density (figure 12) and the repeller analysis
(figure 13).

Run with:  python examples/peering_policy_report.py [--scenario NAME] [--size SIZE]
"""

import argparse

from repro.analysis.density import density_per_ixp
from repro.analysis.policies import PolicyAnalysis
from repro.analysis.repellers import RepellerAnalysis
from repro.scenarios.workloads import scenario_run
from repro.topology.customer_cone import customer_cone


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="europe2013",
                        help="registered scenario family")
    parser.add_argument("--size", default="small",
                        help="size-table row (tiny/small/bench/medium/large/full)")
    args = parser.parse_args()

    run = scenario_run(args.size, scenario=args.scenario)
    scenario = run.scenario()
    result = run.inference()
    graph = scenario.graph
    analysis = PolicyAnalysis(graph, scenario.peeringdb)

    print("figure 9 — route-server participation by self-reported policy")
    for row in analysis.participation_by_policy(list(scenario.ixps)).as_rows():
        print(f"  {row['policy']:<12} {row['participates']:>4} on a RS, "
              f"{row['does_not']:>4} not ({row['rate']:.0%})")

    matrix = analysis.multi_ixp_matrix(list(scenario.ixps))
    print("\nfigure 10 — IXP presences vs RS participation")
    print(f"  single IXP + its RS: {matrix.fraction_single_ixp_with_rs():.1%}")
    print(f"  no RS anywhere:      {matrix.fraction_no_rs():.1%}")

    members = {name: graph.rs_members_of_ixp(name) for name in result.matrix.planes}
    openness = analysis.export_openness_from_matrix(result.matrix, members)
    print("\nfigure 11 — mean export openness by policy")
    for policy, mean in sorted(PolicyAnalysis.mean_openness(openness).items()):
        print(f"  {policy:<12} {mean:.1%}")

    density = density_per_ixp(result.matrix.links_by_ixp(), members,
                              only_members_with_links=True)
    print("\nfigure 12 — mean RS peering density (IXPs with an RS LG)")
    for name in scenario.rs_looking_glasses:
        print(f"  {name:<10} {density.mean_density(name):.2f}")

    repellers = RepellerAnalysis(
        customer_cone=lambda asn: customer_cone(graph, asn),
        direct_customers=lambda asn: set(graph.customers(asn)))
    report = repellers.analyse_matrix(result.matrix, members)
    hypergiants = set(scenario.internet.hypergiants)
    print("\nfigure 13 — most-excluded networks (repellers)")
    for asn, count in report.top_repellers(5):
        label = "hypergiant" if asn in hypergiants else graph.get_as(asn).name
        print(f"  AS{asn:<8} blocked {count:>3} times  ({label})")
    print(f"  EXCLUDEs targeting the blocker's own customer cone: "
          f"{report.fraction_customer_cone():.0%}")


if __name__ == "__main__":
    main()

"""Figure 12: per-member peering density at each route server."""

from repro.analysis.density import density_per_ixp


def test_peering_density(scenario, reachability, benchmark):
    members_by_ixp = {name: scenario.graph.rs_members_of_ixp(name)
                      for name in reachability.planes}

    report = benchmark(density_per_ixp, reachability.links_by_ixp(),
                       members_by_ixp, True)

    print("\nFigure 12 — mean peering density per RS member per IXP")
    full_data_ixps = [name for name in scenario.rs_looking_glasses
                      if name in report.per_member]
    for name in sorted(full_data_ixps,
                       key=lambda n: -len(members_by_ixp.get(n, []))):
        mean = report.mean_density(name)
        print(f"  {name:<10} {mean:.2f}  ({len(report.per_member[name])} members)")
    print("  (paper: 0.79-0.95 at the IXPs with full connectivity data)")

    densities = [report.mean_density(name) for name in full_data_ixps
                 if len(members_by_ixp.get(name, [])) >= 15]
    assert densities
    assert all(d >= 0.55 for d in densities)
    assert max(d for d in densities) > 0.7

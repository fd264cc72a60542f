"""Figure 7: customer degrees of the ASes on inferred p2p links."""

from repro.analysis.degrees import DegreeAnalysis


def test_customer_degree_distribution(scenario, reachability, benchmark):
    graph = scenario.graph
    analysis = DegreeAnalysis(
        lambda asn: graph.transit_degree(asn) if graph.has_as(asn) else 0)

    stats = benchmark(analysis.analyse, reachability.all_links())

    summary = stats.summary()
    print("\nFigure 7 — customer degrees on inferred MLP links")
    print(f"  links analysed:                       {int(summary['links'])}")
    print(f"  links between two stubs:              {summary['stub_stub']:.1%} "
          f"(paper: 12.4%)")
    print(f"  links involving at least one stub:    {summary['involves_stub']:.1%} "
          f"(paper: 55.6%)")
    print(f"  links involving an AS with <=10 cust: {summary['small_degree']:.1%} "
          f"(paper: 58.1%)")
    print("  CDF (smallest degree on link):")
    for point, value in stats.cdf("smallest"):
        print(f"    <= {point:>4}: {value:.3f}")

    assert summary["involves_stub"] >= summary["stub_stub"]
    assert summary["small_degree"] >= summary["involves_stub"]
    assert summary["involves_stub"] > 0.3

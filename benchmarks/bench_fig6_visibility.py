"""Figure 6: MLP links vs passive BGP and traceroute visibility.

Also reproduces the headline claims: most inferred links are invisible in
public BGP data (paper: 88%), and the inferred set multiplies the number
of known peering links (paper: +209%).
"""

from repro.analysis.visibility import VisibilityAnalysis


def test_visibility_comparison(scenario, reachability, benchmark):
    bgp_links = scenario.public_bgp_links()

    def analyse():
        traceroute_links = scenario.traceroute_links()
        analysis = VisibilityAnalysis(
            reachability.all_links(), bgp_links, traceroute_links)
        return analysis, analysis.report.summary()

    analysis, summary = benchmark(analyse)

    print("\nFigure 6 / section 5 headline numbers")
    print(f"  MLP links inferred:              {int(summary['mlp_links'])}")
    print(f"  AS links visible in public BGP:  {int(summary['bgp_links'])}")
    print(f"  traceroute-derived AS links:     {int(summary['traceroute_links'])}")
    print(f"  MLP links visible in BGP:        {int(summary['visible_in_bgp'])} "
          f"({summary['fraction_visible_in_bgp']:.1%}; paper: 11.9%)")
    print(f"  previously invisible:            {summary['fraction_invisible']:.1%} "
          f"(paper: 88%)")
    print(f"  MLP links seen by traceroute:    "
          f"{int(summary['visible_in_traceroute'])}")

    series = analysis.per_member_series()
    print("  per-member series (top 5 by MLP peer count):")
    for row in series[:5]:
        print(f"    AS{row['asn']:<8} mlp={row['mlp']:<5} passive={row['passive']:<5} "
              f"active={row['active']}")

    assert summary["fraction_invisible"] > 0.5
    assert summary["visible_in_traceroute"] <= summary["visible_in_bgp"] + 5

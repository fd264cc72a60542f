"""Section 5.6: hybrid p2p/p2c relationships among inferred RS links."""

from repro.analysis.hybrid import HybridRelationshipAnalysis


def test_hybrid_relationships(scenario, reachability, benchmark):
    graph = scenario.graph
    truth_hybrid = set()
    for pairs in scenario.internet.hybrid_pairs.values():
        truth_hybrid |= pairs

    analysis = HybridRelationshipAnalysis(
        graph.relationship,
        hybrid_evidence=lambda link: link in truth_hybrid)

    report = benchmark(analysis.analyse, reachability.all_links(),
                       reachability.link_ixps())

    print("\nSection 5.6 — hybrid relationships")
    print(f"  inferred RS links that overlap a c2p relationship: "
          f"{report.num_candidates} (paper: 1,230)")
    print(f"  confirmed location-specific hybrid relationships:  "
          f"{report.num_confirmed} (paper: 202 of 440 checked)")

    assert report.num_candidates >= 0
    for candidate in report.candidates:
        assert graph.has_link(*candidate.link)

"""Table 3 + Figure 8: looking-glass validation of the inferred links."""

from repro.core.validation import LinkValidator


def test_link_validation(scenario, reachability, benchmark):
    link_ixp = {}
    for name, links in reachability.links_by_ixp().items():
        for link in links:
            link_ixp.setdefault(link, name)
    links = sorted(reachability.all_links())

    validator = LinkValidator(
        looking_glasses=scenario.validation_lgs,
        origin_prefixes=scenario.origin_prefixes(),
        geolocation=scenario.geolocation,
    )

    report = benchmark.pedantic(validator.validate, args=(links,),
                                kwargs={"link_ixp": link_ixp},
                                rounds=1, iterations=1)

    print("\nTable 3 — validation of inferred MLP links per IXP")
    print(f"  {'IXP':<10} {'validated':>10} {'confirmed':>10} {'rate':>7}")
    for name, row in sorted(report.per_ixp().items(),
                            key=lambda item: -item[1]["validated"]):
        print(f"  {name:<10} {row['validated']:>10} {row['confirmed']:>10} "
              f"{row['rate']:>6.1%}")
    print(f"  overall: {report.num_tested} tested, {report.num_confirmed} "
          f"confirmed ({report.confirmation_rate:.1%}; paper: 98.4%)")

    rates = report.rate_by_display_mode()
    print("Figure 8 — confirmation rate by LG display mode")
    print(f"  all-paths LGs: {rates['all-paths']:.1%}   "
          f"best-path LGs: {rates['best-path']:.1%}")

    assert report.num_tested > 0
    assert report.confirmation_rate >= 0.7
    assert rates["all-paths"] >= rates["best-path"] - 0.05

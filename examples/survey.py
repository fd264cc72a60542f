#!/usr/bin/env python3
"""Reproduce the paper's measurement survey on any registered scenario.

Builds the requested scenario through the staged pipeline, runs the full
passive + active inference and prints the Table 2 rows, the visibility
headline numbers (figure 6) and the validation summary (Table 3).

Run with:  python examples/survey.py [--scenario NAME] [--size SIZE]
           python examples/survey.py --events churn
           python examples/survey.py --list

Any family registered in the scenario registry works; `--list` shows
what is available.  `--events FAMILY` replays an event timeline (churn,
failover, flap-storm) on top of the scenario via incremental delta
recompute and prints the per-event affected-set statistics.
"""

import argparse

from repro.analysis.visibility import VisibilityAnalysis
from repro.core.validation import LinkValidator
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.workloads import scenario_run


def print_timeline(run) -> None:
    """Replay the run's event timeline and print per-event stats."""
    spec = run.spec
    print(f"\nreplaying the {spec.timeline.family!r} timeline "
          f"({spec.timeline.length} events, delta recompute) ...")
    report = run.timeline()
    print(f"  {'#':>2} {'event':<12} {'affected':>8} {'recomp':>6} "
          f"{'reused':>6} {'frac':>7} {'links':>5} {'rebag':>5} "
          f"{'index':>7} {'restore':>7} {'ms':>8}")
    for index, row in enumerate(report.rows()):
        print(f"  {index:>2} {row['event']:<12} {row['affected']:>8} "
              f"{row['recomputed']:>6} {row['reused']:>6} "
              f"{row['affected_fraction']:>7.2%} {row['links_changed']:>5} "
              f"{row['rebagged']:>5} {row['reindex'] or '-':>7} "
              f"{'yes' if row['restored'] else '-':>7} "
              f"{row['seconds'] * 1e3:>8.1f}")
    total = sum(row["recomputed"] for row in report.rows())
    origins = report.reports[-1].total if report.reports else 0
    print(f"  {len(report.events)} events, {total} origin recomputes "
          f"over {origins} origins")


def run_survey(scenario_name: str, size: str, events=None) -> None:
    """Build one scenario, run inference, print the survey tables."""
    spec = get_scenario(scenario_name)
    if events is not None:
        from repro.scenarios.events import TimelineSpec
        spec = spec.with_overrides(
            name=f"{spec.name}+{events}",
            timeline=TimelineSpec(family=events, length=8,
                                  seed=spec.base_seed))
    print(f"building the {spec.name} scenario ({size}) ...")
    if spec.description:
        print(f"  {spec.description}")
    if events is not None:
        from repro.pipeline.run import ScenarioRun
        run = ScenarioRun(spec.config(size), scenario=spec)
    else:
        run = scenario_run(size, scenario=scenario_name)
    scenario = run.scenario()
    print(f"  {len(scenario.graph)} ASes, "
          f"{len(scenario.ground_truth_links())} ground-truth MLP pairs")

    print("running passive + active inference ...")
    result = run.inference()

    ixp_ases = {name: len(ixp.members) for name, ixp in scenario.ixps.items()}
    ixp_lg = {s.name: s.has_rs_lg for s in scenario.internet.ixp_specs}
    print("\nTable 2 — inference results per IXP")
    print(f"  {'IXP':<12} {'LG':>3} {'ASes':>6} {'RS':>5} {'Pasv':>6} "
          f"{'Active':>7} {'Links':>8}")
    for row in result.table2(ixp_ases=ixp_ases, ixp_has_lg=ixp_lg):
        print(f"  {row['IXP']:<12} {row['LG']:>3} {row['ASes']:>6} "
              f"{row['RS']:>5} {row['Pasv']:>6} {row['Active']:>7} "
              f"{row['Links']:>8}")

    inferred = set(result.matrix.all_links())
    truth = scenario.ground_truth_links()
    visibility = VisibilityAnalysis(
        inferred, scenario.public_bgp_links(), scenario.traceroute_links())
    print("\nheadline numbers")
    print(f"  inferred MLP links:        {len(inferred)}")
    if inferred:
        print(f"  precision vs ground truth: "
              f"{len(inferred & truth) / len(inferred):.3f}")
    print(f"  invisible in public BGP:   {visibility.report.fraction_invisible:.1%}"
          f"  (paper: 88%)")

    print("\nvalidating a sample of links against the public looking glasses ...")
    sample = sorted(inferred)[: min(3000, len(inferred))]
    validator = LinkValidator(scenario.validation_lgs,
                              scenario.origin_prefixes(),
                              geolocation=scenario.geolocation)
    report = validator.validate(sample)
    print(f"  tested {report.num_tested} links, confirmed "
          f"{report.num_confirmed} ({report.confirmation_rate:.1%}; paper: 98.4%)")

    if run.spec.timeline is not None:
        print_timeline(run)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="europe2013",
                        help="registered scenario family (see --list)")
    parser.add_argument("--size", default="small",
                        help="size-table row (tiny/small/bench/medium/large/full)")
    parser.add_argument("--events", default=None, metavar="FAMILY",
                        help="replay an event-timeline family (churn, "
                             "failover, flap-storm) over the scenario and "
                             "print per-event delta-recompute stats")
    parser.add_argument("--list", action="store_true",
                        help="list the registered scenarios and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in scenario_names():
            spec = get_scenario(name)
            sizes = ", ".join(spec.size_names())
            print(f"{name:<20} {spec.description}")
            print(f"{'':<20} sizes: {sizes}")
        return

    run_survey(args.scenario, args.size, events=args.events)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Passive-only discovery: mine RS communities out of collector archives.

Demonstrates section 4.2 in isolation: no looking glass is queried; the
only inputs are the archived Route Views / RIPE RIS style table dumps of
the scenario.  Shows how many RS members (and links) each IXP yields from
passive data alone, and how the RS setter is pin-pointed.

Run with:  python examples/passive_discovery.py [--scenario NAME] [--size SIZE]
"""

import argparse
from collections import Counter

from repro.core.passive import PassiveInference
from repro.scenarios.workloads import scenario_run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="europe2013",
                        help="registered scenario family")
    parser.add_argument("--size", default="small",
                        help="size-table row (tiny/small/bench/medium/large/full)")
    args = parser.parse_args()

    scenario = scenario_run(args.size, scenario=args.scenario).scenario()
    entries = scenario.archive.clean_stable_entries()
    print(f"archived RIB entries after cleaning: {len(entries)}")

    engine = scenario.make_engine()
    passive = PassiveInference(engine.interpreter, scenario.relationship_map())
    observations = passive.extract(entries)

    print(f"entries with attributable RS communities: {len(observations)}")
    print(f"ambiguous-IXP entries skipped: {passive.stats.entries_ambiguous_ixp}")
    print(f"entries without an identifiable setter: "
          f"{passive.stats.entries_without_setter}")

    per_ixp_members = Counter()
    feeders = Counter()
    for observation in observations:
        per_ixp_members[observation.ixp_name] = per_ixp_members.get(
            observation.ixp_name, 0)
    members_by_ixp = passive.covered_members(observations)
    for observation in observations:
        feeders[(observation.ixp_name, observation.feeder_asn)] += 1

    print("\nRS members whose communities are visible passively, per IXP:")
    for ixp_name in sorted(members_by_ixp, key=lambda n: -len(members_by_ixp[n])):
        members = members_by_ixp[ixp_name]
        rs_feeders = {feeder for (name, feeder) in feeders if name == ixp_name}
        print(f"  {ixp_name:<10} members={len(members):>4}  "
              f"RS feeders={len(rs_feeders)}")

    print("\nrunning the full inference with passive data only ...")
    result = scenario.run_inference(use_active=False)
    print(f"  links inferred passively: {len(result.matrix.all_links())}")
    combined = scenario.run_inference()
    print(f"  links with active queries added: {len(combined.matrix.all_links())}")


if __name__ == "__main__":
    main()

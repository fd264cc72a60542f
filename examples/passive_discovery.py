#!/usr/bin/env python3
"""Passive-only discovery: mine RS communities out of collector archives.

Demonstrates section 4.2 in isolation: no looking glass is queried; the
only inputs are the archived Route Views / RIPE RIS style table dumps of
the scenario.  Shows how the RS setter of one archived entry is
pin-pointed (figure 4), then how many observations, RS members (and
links) each IXP yields from passive data alone, against the run with
active queries added.

Run with:  python examples/passive_discovery.py [--scenario NAME] [--size SIZE]
"""

import argparse

from repro.core.passive import identify_setter
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

    # Figure 4 on the first attributable entry: its RS communities name
    # an IXP, and the IXP members on its AS path pin-point the setter.
    engine = scenario.make_engine()
    for entry in entries:
        identification = engine.interpreter.identify_unique_ixp(
            entry.communities)
        if identification is None:
            continue
        ixp_name = identification.ixp_name
        setter = identify_setter(engine.rs_members[ixp_name],
                                 entry.as_path, engine.relationships)
        if setter is not None:
            print(f"RS setter of {entry.prefix} via AS path "
                  f"{entry.as_path}: AS{setter} at {ixp_name}")
            break

    print("\nrunning the inference with passive data only ...")
    result = scenario.run_inference(use_active=False)
    planes = result.matrix.planes
    rows = sum(int(plane.counts[:, 2].sum()) for plane in planes.values())
    print(f"passive observations of RS members: {rows}")

    print("\nRS members whose communities are visible passively, per IXP:")
    for name in sorted(planes, key=lambda n: -len(planes[n].passive_members)):
        members = planes[name].passive_members
        if members:
            print(f"  {name:<10} members={len(members):>4}")

    print(f"\n  links inferred passively: {len(result.matrix.all_links())}")
    combined = scenario.run_inference()
    print(f"  links with active queries added: {len(combined.matrix.all_links())}")


if __name__ == "__main__":
    main()

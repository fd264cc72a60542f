"""Table 2: per-IXP MLP inference results (the headline experiment).

Prints the reproduced Table 2 (ASes / RS members / passive / active /
links per IXP) and benchmarks the end-to-end inference over the already
assembled scenario.  The first run warms the shared caches (archive
stable-entry memo, observation planes), so the timed rounds measure
*steady-state* throughput: they serve from the context-cached planes
and pay only the reciprocal ``M & M.T`` kernel and result assembly.
"""


def test_table2_inference(scenario, benchmark):
    def infer():
        return scenario.run_inference()

    infer()  # warm the archive memo / observation-plane cache
    result = benchmark.pedantic(infer, rounds=3, iterations=1)

    ixp_ases = {name: len(ixp.members) for name, ixp in scenario.ixps.items()}
    ixp_lg = {spec.name: spec.has_rs_lg for spec in scenario.internet.ixp_specs}
    rows = result.table2(ixp_ases=ixp_ases, ixp_has_lg=ixp_lg)

    print("\nTable 2 — inferred MLP links per IXP")
    print(f"  {'IXP':<10} {'LG':>3} {'ASes':>6} {'RS':>5} {'Pasv':>6} "
          f"{'Active':>7} {'Links':>8}")
    for row in rows:
        print(f"  {row['IXP']:<10} {row['LG']:>3} {row['ASes']:>6} {row['RS']:>5} "
              f"{row['Pasv']:>6} {row['Active']:>7} {row['Links']:>8}")
    total = set(result.matrix.all_links())
    truth = scenario.ground_truth_links()
    print(f"  total unique links inferred: {len(total)}")
    print(f"  links counted at multiple IXPs: {len(result.matrix.multi_ixp_links())}")
    print(f"  precision vs ground truth: {len(total & truth) / len(total):.3f}")

    assert len(rows) == 13
    assert len(total) > 1000
    assert len(total & truth) / len(total) >= 0.98

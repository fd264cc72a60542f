"""Ablation: the reciprocity assumption (DESIGN.md, design decision 1).

Compares link counts and precision with the reciprocity requirement on
(the paper's algorithm) and off (a single ALLOW direction suffices).
"""


def test_reciprocity_ablation(scenario, benchmark):
    truth = scenario.ground_truth_links()

    def run_both():
        strict = scenario.run_inference(require_reciprocity=True)
        loose = scenario.run_inference(require_reciprocity=False)
        return (set(strict.matrix.all_links()),
                set(loose.matrix.all_links()))

    strict_links, loose_links = benchmark.pedantic(run_both, rounds=1,
                                                   iterations=1)

    def precision(links):
        return len(links & truth) / len(links) if links else 0.0

    print("\nAblation — reciprocity assumption")
    print(f"  with reciprocity:    {len(strict_links)} links, "
          f"precision {precision(strict_links):.3f}")
    print(f"  without reciprocity: {len(loose_links)} links, "
          f"precision {precision(loose_links):.3f}")

    assert strict_links <= loose_links
    assert precision(strict_links) >= precision(loose_links)
    assert precision(strict_links) >= 0.98

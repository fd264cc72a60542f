"""The figure 7 per-link walk, kept as the oracle.

Production (:class:`repro.analysis.degrees.DegreeAnalysis`) looks each
distinct endpoint's customer degree up once and gathers the per-link
degrees as arrays; this is the seed's walk: both endpoint degrees per
link, then one Python count per fraction.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple


def per_link_summary(links: Iterable[Tuple[int, int]],
                     customer_degree: Callable[[int], int],
                     small_degree_threshold: int = 10) -> Dict[str, float]:
    """The analyses stage's figure 7 summary, link by link."""
    smallest, largest = [], []
    for a, b in links:
        degree_a = customer_degree(a)
        degree_b = customer_degree(b)
        smallest.append(min(degree_a, degree_b))
        largest.append(max(degree_a, degree_b))
    count = len(smallest)

    def fraction(hits: int) -> float:
        return hits / count if count else 0.0

    return {
        "links": float(count),
        "stub_stub": fraction(sum(1 for degree in largest if degree == 0)),
        "involves_stub": fraction(sum(1 for degree in smallest
                                      if degree == 0)),
        "small_degree": fraction(sum(
            1 for degree in smallest if degree <= small_degree_threshold)),
    }

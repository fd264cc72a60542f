"""Customer-degree distributions of the inferred links (figure 7).

For every inferred p2p link the analysis looks at the customer degrees of
the two endpoints and reports, per link, the smaller and the larger of
the two.  The paper's findings: 12.4% of links are between two stubs,
55.6% involve at least one stub, and 58.1% involve an AS with at most 10
customers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.runtime.fragments import unpack_links

Link = Tuple[int, int]


@dataclass
class LinkDegreeStats:
    """Aggregate degree statistics over a set of links: per link, the
    smaller and the larger endpoint customer degree (int64 arrays)."""

    smallest_degrees: np.ndarray
    largest_degrees: np.ndarray

    @property
    def num_links(self) -> int:
        """Number of links analysed."""
        return len(self.smallest_degrees)

    def _fraction(self, mask: np.ndarray) -> float:
        if not self.num_links:
            return 0.0
        return int(np.count_nonzero(mask)) / self.num_links

    def fraction_stub_stub(self) -> float:
        """Fraction of links between two stub ASes (both degrees zero)."""
        return self._fraction(self.largest_degrees == 0)

    def fraction_with_stub(self) -> float:
        """Fraction of links involving at least one stub AS."""
        return self._fraction(self.smallest_degrees == 0)

    def fraction_small_degree(self, threshold: int = 10) -> float:
        """Fraction of links involving an AS with at most *threshold* customers."""
        return self._fraction(self.smallest_degrees <= threshold)

    def cdf(self, which: str = "smallest",
            points: Sequence[int] = (0, 1, 2, 5, 10, 20, 50, 100, 500, 1000)
            ) -> List[Tuple[int, float]]:
        """CDF of the chosen degree series at the given evaluation points."""
        series = self.smallest_degrees if which == "smallest" else self.largest_degrees
        if not len(series):
            return [(point, 0.0) for point in points]
        total = len(series)
        return [(point, int(np.count_nonzero(series <= point)) / total)
                for point in points]

    def summary(self) -> Dict[str, float]:
        """The three headline fractions of figure 7."""
        return {
            "links": float(self.num_links),
            "stub_stub": self.fraction_stub_stub(),
            "involves_stub": self.fraction_with_stub(),
            "small_degree": self.fraction_small_degree(10),
        }


class DegreeAnalysis:
    """Compute figure 7 from a link set and a customer-degree function.

    The degree function runs once per distinct link endpoint; the
    per-link degrees are one gather over those counts.
    """

    def __init__(self, customer_degree: Callable[[int], int]) -> None:
        self.customer_degree = customer_degree

    def analyse(self, links: Iterable[Link]) -> LinkDegreeStats:
        """Compute per-link smallest/largest customer degrees."""
        pairs = np.asarray(list(links), dtype=np.int64).reshape(-1, 2)
        return self._stats(pairs[:, 0], pairs[:, 1])

    def analyse_keys(self, keys: np.ndarray) -> LinkDegreeStats:
        """:meth:`analyse` over packed link keys
        (:func:`~repro.runtime.fragments.pack_links`)."""
        return self._stats(*unpack_links(np.asarray(keys, dtype=np.uint64)))

    def _stats(self, left: np.ndarray, right: np.ndarray) -> LinkDegreeStats:
        endpoints, inverse = np.unique(np.concatenate((left, right)),
                                       return_inverse=True)
        degrees = np.asarray([self.customer_degree(asn)
                              for asn in endpoints.tolist()],
                             dtype=np.int64)[inverse.reshape(-1)]
        degree_left, degree_right = degrees[:len(left)], degrees[len(left):]
        return LinkDegreeStats(np.minimum(degree_left, degree_right),
                               np.maximum(degree_left, degree_right))

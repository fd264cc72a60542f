"""Prefix geolocation (MaxMind GeoLite stand-in).

Section 5.1 selects up to six validation prefixes per link "as
geographically distant from each other as possible"; this substrate
provides the region lookup and the greedy spread-maximising selection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix

#: Rough coordinates per region used for distance computations.
_REGION_COORDINATES: Dict[str, Tuple[float, float]] = {
    "eu-west": (51.5, -0.1),
    "eu-central": (50.1, 8.7),
    "eu-east": (55.7, 37.6),
    "eu-north": (59.3, 18.1),
    "eu-south": (41.9, 12.5),
    "na": (40.7, -74.0),
    "asia": (1.35, 103.8),
    "global": (48.8, 2.3),
}


class GeolocationDB:
    """Maps prefixes to regions and supports distance-aware selection."""

    def __init__(self) -> None:
        self._regions: Dict[Prefix, str] = {}

    def register(self, prefix: Prefix, region: str) -> None:
        """Record that *prefix* is announced from *region*."""
        self._regions[prefix] = region

    def register_many(self, prefixes: Iterable[Prefix], region: str) -> None:
        """Record a batch of prefixes for one region."""
        for prefix in prefixes:
            self.register(prefix, region)

    def region_of(self, prefix: Prefix) -> Optional[str]:
        """Region of *prefix* (exact match, then covering prefix), or None."""
        if prefix in self._regions:
            return self._regions[prefix]
        for candidate, region in self._regions.items():
            if candidate.contains(prefix):
                return region
        return None

    def coordinates_of(self, prefix: Prefix) -> Optional[Tuple[float, float]]:
        """Approximate coordinates of *prefix*'s region."""
        region = self.region_of(prefix)
        if region is None:
            return None
        return _REGION_COORDINATES.get(region)

    def __len__(self) -> int:
        return len(self._regions)

    # -- selection --------------------------------------------------------------------

    def select_distant(self, prefixes: Sequence[Prefix], count: int = 6) -> List[Prefix]:
        """Greedy selection of up to *count* prefixes maximising pairwise
        region spread (the validation-prefix selection of section 5.1)."""
        unique = list(dict.fromkeys(prefixes))
        if len(unique) <= count:
            return unique
        chosen: List[Prefix] = [unique[0]]
        while len(chosen) < count:
            best_prefix = None
            best_score = -1.0
            for candidate in unique:
                if candidate in chosen:
                    continue
                score = min(self._distance(candidate, existing)
                            for existing in chosen)
                if score > best_score:
                    best_score = score
                    best_prefix = candidate
            if best_prefix is None:
                break
            chosen.append(best_prefix)
        return chosen

    def _distance(self, a: Prefix, b: Prefix) -> float:
        coord_a = self.coordinates_of(a)
        coord_b = self.coordinates_of(b)
        if coord_a is None or coord_b is None:
            return 0.0
        return ((coord_a[0] - coord_b[0]) ** 2 + (coord_a[1] - coord_b[1]) ** 2) ** 0.5

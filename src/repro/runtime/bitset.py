"""Dense bit positions over a fixed member population.

Reachability sets (the paper's N_a) and reciprocal-ALLOW link inference
operate on IXP member populations of a few hundred ASes.  Each member
gets the bit position of its rank in the sorted member list, which
makes every derived ordering deterministic; the ALLOW rows and member
masks over those bits are packed uint64 columns
(:mod:`repro.runtime.reachmatrix`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class BitsetIndex:
    """Dense bit positions for a sorted universe of hashable values."""

    __slots__ = ("universe", "bit_of")

    def __init__(self, universe: Iterable[int]) -> None:
        #: the sorted universe; bit ``i`` stands for ``universe[i]``.
        self.universe: Tuple[int, ...] = tuple(sorted(set(universe)))
        self.bit_of: Dict[int, int] = {
            value: bit for bit, value in enumerate(self.universe)}

    def __len__(self) -> int:
        return len(self.universe)

    def __repr__(self) -> str:
        return f"BitsetIndex({len(self.universe)} members)"

"""Bitmask index over a fixed member population.

Reachability sets (the paper's N_a) and reciprocal-ALLOW link inference
operate on IXP member populations of a few hundred ASes.  Each set is a
Python integer bitmask over the sorted member list, which makes every
derived ordering deterministic (bit position == rank of the ASN); the
reciprocity check runs on these masks packed into uint64 planes
(:mod:`repro.runtime.reachmatrix`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple


class BitsetIndex:
    """Dense bit positions for a sorted universe of hashable values."""

    __slots__ = ("universe", "bit_of", "full_mask")

    def __init__(self, universe: Iterable[int]) -> None:
        #: the sorted universe; bit ``i`` stands for ``universe[i]``.
        self.universe: Tuple[int, ...] = tuple(sorted(set(universe)))
        self.bit_of: Dict[int, int] = {
            value: bit for bit, value in enumerate(self.universe)}
        self.full_mask: int = (1 << len(self.universe)) - 1

    def mask_of(self, values: Iterable[int]) -> int:
        """Bitmask of the given values (unknown values are ignored)."""
        bit_of = self.bit_of
        mask = 0
        for value in values:
            bit = bit_of.get(value)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def __len__(self) -> int:
        return len(self.universe)

    def __repr__(self) -> str:
        return f"BitsetIndex({len(self.universe)} members)"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


"""The per-block affected-set scan the one-pass lookup is checked against.

:func:`origins_touching` is the original implementation of
:func:`repro.runtime.delta.origins_touching`: it walks the prior
result's recorded (best, offered) blocks one by one, tests every removed
pair against the block's :func:`~tests.oracle.blocks.link_pairs` and
every visited ASN against its raw path values.  It
needs no packed keys, so it also answers for values beyond 32 bits.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

import numpy as np

from tests.oracle.blocks import link_pairs


def _block_touches(block, pair_set: Set[Tuple[int, int]],
                   visit_set: Set[int]) -> bool:
    """Does one fragment block contain any pair as an adjacent path hop,
    or visit any of the ASNs?"""
    values = block.path_values
    for asn in visit_set:
        if bool((values == asn).any()):
            return True
    if pair_set:
        # A caller's view may carry its pairs precomputed.
        lo, hi = block.link_pairs() if hasattr(block, "link_pairs") \
            else link_pairs(block)
        if len(lo):
            hit = np.zeros(len(lo), dtype=bool)
            for low, high in pair_set:
                hit |= (lo == low) & (hi == high)
            if bool(hit.any()):
                return True
    return False


def origins_touching(
    prior,
    pairs: Iterable[Tuple[int, int]] = (),
    visits: Iterable[int] = (),
) -> Set[int]:
    """Origins whose recorded best or offered block crosses any of
    *pairs* (an adjacent undirected hop) or visits any ASN in *visits*."""
    pair_set = {(min(a, b), max(a, b)) for a, b in pairs}
    visit_set = set(visits)
    if not pair_set and not visit_set:
        return set()
    touched: Set[int] = set()
    for origin, (best, offered) in prior.recorded_fragments().items():
        if _block_touches(best, pair_set, visit_set) or \
                _block_touches(offered, pair_set, visit_set):
            touched.add(origin)
    return touched

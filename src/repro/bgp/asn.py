"""Autonomous System Number (ASN) handling.

ASNs are plain integers throughout the library.  This module provides the
classification helpers the paper relies on:

* filtering of reserved / private ASNs from AS paths (section 5 removes
  AS 23456 and the 63488-131071 block before running inference);
* detection of 32-bit ASNs, which cannot be encoded in the 16-bit
  ``peer-asn`` half of an RS community and therefore require the IXP to
  map them onto private 16-bit ASNs (section 3);
* :class:`Private16BitMapper`, the per-IXP mapping between 32-bit member
  ASNs and private 16-bit placeholder ASNs.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, Tuple

import numpy as np

#: AS_TRANS, the placeholder ASN used by old BGP speakers for 32-bit ASNs.
AS_TRANS = 23456

#: 16-bit private ASN range (RFC 6996).
PRIVATE_ASN_RANGE: Tuple[int, int] = (64512, 65534)

#: 32-bit private ASN range (RFC 6996).
PRIVATE_ASN_32BIT_RANGE: Tuple[int, int] = (4200000000, 4294967294)

#: Block the paper filters out: unassigned/reserved 16-bit-adjacent space.
_RESERVED_BLOCK: Tuple[int, int] = (63488, 131071)

#: Largest valid ASN (32-bit).
MAX_ASN = 2**32 - 1


def is_32bit_asn(asn: int) -> bool:
    """Return True if *asn* does not fit in 16 bits."""
    return asn > 0xFFFF


def routable_mask(asns) -> np.ndarray:
    """Per element of an int64 ASN array: may it appear in a public AS
    path?  Reserved ASNs (section 5 of the paper: AS 0, AS_TRANS, the
    63488-131071 block, 65535, 4294967295 and anything outside the
    32-bit space) and private ASNs (RFC 6996) may not."""
    asns = np.asarray(asns, dtype=np.int64)
    lo16, hi16 = PRIVATE_ASN_RANGE
    lo32, hi32 = PRIVATE_ASN_32BIT_RANGE
    lo, hi = _RESERVED_BLOCK
    unusable = ((asns <= 0) | (asns >= MAX_ASN) | (asns == AS_TRANS)
                | (asns == 0xFFFF) | ((asns >= lo) & (asns <= hi))
                | ((asns >= lo16) & (asns <= hi16))
                | ((asns >= lo32) & (asns <= hi32)))
    return ~unusable


class Private16BitMapper:
    """Map 32-bit member ASNs onto private 16-bit ASNs.

    The ``peer-asn`` half of an RS community is 16 bits wide, so IXP
    operators that want their 32-bit members to be filterable allocate a
    private 16-bit ASN per such member (section 3 of the paper).  The
    mapping is bidirectional and stable for the lifetime of the mapper.
    """

    def __init__(self, start: int = PRIVATE_ASN_RANGE[0]) -> None:
        lo, hi = PRIVATE_ASN_RANGE
        if not lo <= start <= hi:
            raise ValueError(f"start {start} outside private 16-bit range")
        self._next = start
        self._forward: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._forward)

    def __contains__(self, asn: int) -> bool:
        return asn in self._forward

    def __iter__(self) -> Iterator[int]:
        return iter(self._forward)

    def register(self, asn: int) -> int:
        """Register a 32-bit *asn* and return its private 16-bit alias.

        Registering the same ASN twice returns the same alias.  16-bit
        ASNs are returned unchanged (no alias needed).
        """
        if not is_32bit_asn(asn):
            return asn
        if asn in self._forward:
            return self._forward[asn]
        if self._next > PRIVATE_ASN_RANGE[1]:
            raise OverflowError("private 16-bit ASN space exhausted")
        alias = self._next
        self._next += 1
        self._forward[asn] = alias
        self._reverse[alias] = asn
        return alias

    def alias_for(self, asn: int) -> int:
        """Return the alias for *asn* (identity for 16-bit ASNs).

        Raises KeyError for an unregistered 32-bit ASN.
        """
        if not is_32bit_asn(asn):
            return asn
        return self._forward[asn]

    def resolve(self, alias: int) -> int:
        """Resolve a community-encoded ASN back to the real member ASN.

        If *alias* is a registered private alias the mapped 32-bit ASN is
        returned, otherwise *alias* itself is returned (it already names
        the member directly).
        """
        return self._reverse.get(alias, alias)

    def copy(self) -> "Private16BitMapper":
        """A mapper that registers independently of this one."""
        clone = copy.copy(self)
        clone._forward = dict(self._forward)
        clone._reverse = dict(self._reverse)
        return clone

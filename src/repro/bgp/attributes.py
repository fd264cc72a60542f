"""BGP path attributes: AS_PATH and ORIGIN.

The AS path is the primary source of AS-link data for the public
collectors the paper mines, and the attribute whose cycles / reserved
ASNs must be filtered before inference (section 5).
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.bgp.asn import routable_mask


class Origin(enum.Enum):
    """BGP ORIGIN attribute."""

    IGP = "igp"
    EGP = "egp"
    INCOMPLETE = "incomplete"


class ASPath:
    """An AS_PATH: the sequence of ASNs a route traversed.

    The first element is the AS closest to the observer (the neighbour the
    route was learned from) and the last element is the origin AS, i.e. the
    same order used in ``show ip bgp`` output and MRT dumps.
    """

    __slots__ = ("_asns",)

    def __init__(self, asns: Sequence[int] = ()) -> None:
        object.__setattr__(self, "_asns", tuple(int(a) for a in asns))

    @classmethod
    def from_tuple(cls, asns: Tuple[int, ...]) -> "ASPath":
        """Wrap an already-validated tuple of ints without re-coercing.

        The columnar observation plane materialises paths from interned
        column tuples whose elements are Python ints by construction;
        skipping the per-element ``int()`` pass there is measurable at
        RIB-dump scale.
        """
        path = cls.__new__(cls)
        object.__setattr__(path, "_asns", asns)
        return path

    # -- accessors ---------------------------------------------------------

    @property
    def asns(self) -> Tuple[int, ...]:
        """The raw ASN sequence (observer-side first, origin last)."""
        return self._asns

    def __len__(self) -> int:
        return len(self._asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self._asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self._asns

    def __getitem__(self, index: int) -> int:
        return self._asns[index]

    # -- derived properties -------------------------------------------------

    def deduplicated(self) -> "ASPath":
        """Collapse consecutive duplicate ASNs (AS-path prepending)."""
        collapsed: List[int] = []
        for asn in self._asns:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return ASPath(collapsed)

    # -- dunder ------------------------------------------------------------

    def __str__(self) -> str:
        return " ".join(str(a) for a in self._asns)

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"

    def __hash__(self) -> int:
        return hash(self._asns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._asns == other._asns

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ASPath is immutable")

    def __reduce__(self):
        # __setattr__ is blocked, so slot-state pickling cannot restore
        # instances; rebuild through the constructor instead.
        return (ASPath, (self._asns,))


def clean_path_mask(offsets, values) -> np.ndarray:
    """Does every row of the CSR path table ``(offsets, values)`` pass
    the paper's sanity filters?  One vectorised pass over the cells:
    empty paths, paths holding a non-routable ASN
    (:func:`~repro.bgp.asn.routable_mask`) and paths that repeat an ASN
    after prepends are collapsed (a cycle, as opposed to benign
    prepending) are not clean."""
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    lengths = np.diff(offsets)
    owner = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    clean = lengths > 0
    clean[owner[~routable_mask(values)]] = False
    # Collapse prepends, then look for an ASN twice within a clean row:
    # routable ASNs fit in 32 bits, so (row, ASN) packs into one key.
    kept = np.ones(len(values), dtype=bool)
    kept[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
    kept &= clean[owner]
    keys = np.sort((owner[kept] << 32) | values[kept])
    repeated = keys[1:][keys[1:] == keys[:-1]]
    clean[repeated >> 32] = False
    return clean

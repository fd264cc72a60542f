"""BGP path attributes: AS_PATH and ORIGIN.

The AS path is the primary source of AS-link data for the public
collectors the paper mines, and the attribute whose cycles / reserved
ASNs must be filtered before inference (section 5).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.bgp.asn import is_routable_asn, routable_mask


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

    __slots__ = ("_asns", "_clean")

    def __init__(self, asns: Sequence[int] = ()) -> None:
        object.__setattr__(self, "_asns", tuple(int(a) for a in asns))
        object.__setattr__(self, "_clean", None)

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse a whitespace-separated AS path string."""
        tokens = text.split()
        return cls([int(token) for token in tokens])

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
        object.__setattr__(path, "_clean", None)
        return path

    # -- accessors ---------------------------------------------------------

    @property
    def asns(self) -> Tuple[int, ...]:
        """The raw ASN sequence (observer-side first, origin last)."""
        return self._asns

    @property
    def origin_asn(self) -> int:
        """The origin AS (last element)."""
        if not self._asns:
            raise ValueError("empty AS path has no origin")
        return self._asns[-1]

    @property
    def first_hop(self) -> int:
        """The neighbour AS the route was learned from (first element)."""
        if not self._asns:
            raise ValueError("empty AS path has no first hop")
        return self._asns[0]

    def __len__(self) -> int:
        return len(self._asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self._asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self._asns

    def __getitem__(self, index: int) -> int:
        return self._asns[index]

    # -- derived properties -------------------------------------------------

    def unique_asns(self) -> Set[int]:
        """Set of distinct ASNs on the path."""
        return set(self._asns)

    def deduplicated(self) -> "ASPath":
        """Collapse consecutive duplicate ASNs (AS-path prepending)."""
        collapsed: List[int] = []
        for asn in self._asns:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return ASPath(collapsed)

    def has_cycle(self) -> bool:
        """True if a non-consecutive ASN repetition exists (a routing loop
        or path poisoning artefact, as opposed to benign prepending)."""
        if len(set(self._asns)) == len(self._asns):
            return False
        deduped = self.deduplicated()
        return len(deduped.unique_asns()) != len(deduped)

    def has_reserved_asn(self) -> bool:
        """True if the path contains a reserved, unassigned or private ASN."""
        return any(not is_routable_asn(asn) for asn in self._asns)

    def is_clean(self) -> bool:
        """True if the path passes the paper's sanity filters: non-empty,
        no reserved/private ASNs, no cycles.

        Memoised per path object: paths are shared across RIB entries and
        days by the observation plane (one ``ASPath`` per interned path
        id), so repeated cleanliness checks are dict-free cache hits."""
        cached = self._clean
        if cached is None:
            cached = bool(self._asns) and not self.has_reserved_asn() \
                and not self.has_cycle()
            object.__setattr__(self, "_clean", cached)
        return cached

    def links(self) -> List[Tuple[int, int]]:
        """Adjacent AS pairs on the (deduplicated) path, as sorted tuples."""
        deduped = self.deduplicated()._asns
        pairs: List[Tuple[int, int]] = []
        for left, right in zip(deduped, deduped[1:]):
            if left != right:
                pairs.append((min(left, right), max(left, right)))
        return pairs

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Return a new path with *asn* prepended *count* times."""
        if count < 1:
            raise ValueError("prepend count must be >= 1")
        return ASPath((asn,) * count + self._asns)

    def without(self, asn: int) -> "ASPath":
        """Return a copy of the path with every occurrence of *asn* removed.

        Used to model route servers that strip their own ASN from the path
        (and, conversely, to test the 'RS ASN not removed' artefact the
        paper observed in 3 validation cases).
        """
        return ASPath(tuple(a for a in self._asns if a != asn))

    def index_of(self, asn: int) -> int:
        """Index of the first occurrence of *asn* (ValueError if absent)."""
        return self._asns.index(asn)

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


def common_links(paths: Iterable[ASPath]) -> Set[Tuple[int, int]]:
    """Union of the AS links present in *paths* (sorted endpoint tuples)."""
    result: Set[Tuple[int, int]] = set()
    for path in paths:
        result.update(path.links())
    return result


def clean_path_mask(offsets, values) -> np.ndarray:
    """:meth:`ASPath.is_clean` of every row of the CSR path table
    ``(offsets, values)``, in one vectorised pass over the cells:
    empty paths, paths holding a non-routable ASN and paths that repeat
    an ASN after prepends are collapsed (a cycle) are not clean."""
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

"""Value interning: map hashable values to dense integer ids.

The data plane runs on small integers — node ids in the CSR index, bit
positions in member bitsets, prefix and community ids in observation
sets — and only converts back to the original ASN/:class:`Prefix`/
:class:`Community` objects at result boundaries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List


class Interner:
    """An append-only bijection ``value <-> dense integer id``.

    Ids are assigned in first-intern order starting at 0, so interning a
    pre-sorted value sequence yields ids whose numeric order equals the
    values' sort order — the property the CSR index relies on to keep
    tie-breaking on node ids identical to tie-breaking on ASNs.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._values: List[Hashable] = []
        for value in values:
            self.intern(value)

    def intern(self, value: Hashable) -> int:
        """Return the id of *value*, assigning the next dense id if new."""
        iid = self._ids.get(value)
        if iid is None:
            iid = len(self._values)
            self._ids[value] = iid
            self._values.append(value)
        return iid

    def value_of(self, iid: int) -> Hashable:
        """The value interned under *iid* (IndexError if out of range)."""
        return self._values[iid]

    @property
    def values(self) -> List[Hashable]:
        """All interned values, indexable by id.  Treat as read-only."""
        return self._values

    @property
    def id_map(self) -> Dict[Hashable, int]:
        """The value -> id mapping.  Treat as read-only."""
        return self._ids

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"Interner({len(self._values)} values)"

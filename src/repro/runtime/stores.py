"""Structure-shared stores for AS paths and community bags.

During propagation every AS's best route references its neighbour's path
and community set; materialising tuples and frozensets per AS is what
made the object-graph engine quadratic in memory.  These stores keep the
shared representation:

* :class:`PathStore` — AS paths as cons cells ``(head ASN, parent id)``.
  Extending a path by one hop is O(1) and shares the entire tail with
  the neighbour it was learned from.  Tuples are only built (memoised)
  for the routes actually recorded at observers.
* :class:`CommunityBagStore` — interned ``frozenset[Community]`` values
  with memoised pairwise unions, so a community bag flowing across an
  edge that attaches communities is computed once per distinct
  (bag, edge-bag) pair, not once per route.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Tuple

#: Parent id marking the end of a path chain.
NIL = -1


class PathStore:
    """Interned AS paths as cons cells.

    ``cons(head, parent)`` appends a cell and returns its id; the full
    tuple form ``(head, *parent_path)`` comes from walking the cells
    (:func:`repro.runtime.fragments.walk_paths`).  The store is
    transient: the propagation engine clears it between origins, after
    the recorded routes were materialised.
    """

    __slots__ = ("_heads", "_parents")

    def __init__(self) -> None:
        self._heads: List[int] = []
        self._parents: List[int] = []

    def cons(self, head: int, parent: int = NIL) -> int:
        """Create the path ``(head,) + path(parent)`` and return its id."""
        pid = len(self._heads)
        self._heads.append(head)
        self._parents.append(parent)
        return pid

    def columns(self) -> Tuple[List[int], List[int]]:
        """The live ``(heads, parents)`` cell columns.

        Feed for the vectorized chain walk
        (:func:`repro.runtime.fragments.walk_paths`), which builds the
        columnar route blocks' paths in one pass.
        """
        return self._heads, self._parents

    def clear(self) -> None:
        """Drop all cells (called between origins)."""
        self._heads.clear()
        self._parents.clear()

    def __len__(self) -> int:
        return len(self._heads)


class CommunityBagStore:
    """Interned community sets with memoised unions.

    Id 0 is always the empty bag, letting hot paths skip union calls for
    edges that attach no communities.  Values may be frozensets of any
    hashable element (the engine uses :class:`~repro.bgp.communities.
    Community` objects so recorded routes can share the stored frozenset
    directly, with no conversion at the result boundary).
    """

    EMPTY = 0

    __slots__ = ("_ids", "_values", "_unions")

    def __init__(self) -> None:
        empty: FrozenSet[Hashable] = frozenset()
        self._ids: Dict[FrozenSet[Hashable], int] = {empty: 0}
        self._values: List[FrozenSet[Hashable]] = [empty]
        self._unions: Dict[Tuple[int, int], int] = {}

    def intern(self, bag: FrozenSet[Hashable]) -> int:
        """Return the id of *bag*, interning it if new."""
        bid = self._ids.get(bag)
        if bid is None:
            bid = len(self._values)
            self._ids[bag] = bid
            self._values.append(bag)
        return bid

    def value(self, bid: int) -> FrozenSet[Hashable]:
        """The frozenset interned under *bid*."""
        return self._values[bid]

    def union(self, a: int, b: int) -> int:
        """Id of the union of bags *a* and *b* (memoised)."""
        if a == b or b == CommunityBagStore.EMPTY:
            return a
        if a == CommunityBagStore.EMPTY:
            return b
        key = (a, b)
        merged = self._unions.get(key)
        if merged is None:
            merged = self.intern(self._values[a] | self._values[b])
            self._unions[key] = merged
            self._unions[(b, a)] = merged
        return merged

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"CommunityBagStore({len(self._values)} bags)"

"""AS link types and valley-free path checking.

Complements :class:`repro.bgp.policy.Relationship` (a per-session view)
with an undirected link-level taxonomy and the valley-free patterns from
section 2.1 of the paper:

    (1) n x c2p + m x p2c
    (2) n x c2p + p2p + m x p2c

with sibling links allowed anywhere.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.bgp.policy import Relationship


class LinkType(enum.Enum):
    """Undirected AS link annotation."""

    C2P = "c2p"          #: customer-to-provider (directed: first AS is customer)
    P2P = "p2p"          #: settlement-free bilateral peering
    RS_P2P = "rs-p2p"    #: peering established multilaterally over a route server
    SIBLING = "sibling"  #: same organisation

    @property
    def is_peering(self) -> bool:
        """True for p2p links regardless of how they were established."""
        return self in (LinkType.P2P, LinkType.RS_P2P)


#: The one link-type rule: for a link ``(a, b)`` (for c2p, *a* is the
#: customer), the relationship of *b* seen from *a* and of *a* from *b*.
LINK_RELATIONSHIPS: Dict[LinkType, Tuple[Relationship, Relationship]] = {
    LinkType.C2P: (Relationship.PROVIDER, Relationship.CUSTOMER),
    LinkType.P2P: (Relationship.PEER, Relationship.PEER),
    LinkType.RS_P2P: (Relationship.RS_PEER, Relationship.RS_PEER),
    LinkType.SIBLING: (Relationship.SIBLING, Relationship.SIBLING),
}


class RelationshipMap(dict):
    """A read-only ordered-pair map, ``(a, b)`` -> the relationship of *b*
    seen from *a*: writes raise ``TypeError``, and pickles and copies are
    rebuilt from a plain dict of the items."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("RelationshipMap is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _read_only

    def __reduce__(self):
        return (RelationshipMap, (dict(self),))

    @classmethod
    def of(cls, relationships: Optional[Mapping] = None) -> "RelationshipMap":
        """*relationships* itself if it is one, else a read-only copy."""
        return relationships if isinstance(relationships, cls) \
            else cls(relationships or {})


def link_type_from_relationship(relationship: Relationship) -> LinkType:
    """Map a session relationship to the equivalent link type."""
    return next(link_type for link_type, pair in LINK_RELATIONSHIPS.items()
                if relationship in pair)


#: step codes used by the path classifier
_UP = "up"       # customer -> provider
_DOWN = "down"   # provider -> customer
_FLAT = "flat"   # peering
_SIDE = "side"   # sibling


def _step(
    left: int,
    right: int,
    relationships: Dict[Tuple[int, int], Relationship],
) -> Optional[str]:
    """Classify one hop using a relationship map keyed by ordered pairs.

    ``relationships[(a, b)]`` is the relationship of *b* as seen from *a*
    (``CUSTOMER`` = b is a's customer).  Returns None for unknown links.
    """
    rel = relationships.get((left, right))
    if rel is None:
        inverse = relationships.get((right, left))
        if inverse is None:
            return None
        rel = inverse.inverse()
    if rel is Relationship.PROVIDER:
        return _UP
    if rel is Relationship.CUSTOMER:
        return _DOWN
    if rel is Relationship.SIBLING:
        return _SIDE
    return _FLAT


def classify_path(
    path: Sequence[int],
    relationships: Dict[Tuple[int, int], Relationship],
) -> Optional[str]:
    """Classify *path* (origin last, as in an AS_PATH read left to right
    from the observer) as ``"valley-free"``, ``"valley"`` or None when a
    hop's relationship is unknown.

    The AS_PATH convention means traffic flows left-to-right but the
    *route announcement* travelled right-to-left; we therefore walk the
    path from the origin (right) towards the observer (left) and expect
    uphill steps, at most one flat step, then downhill steps.
    """
    if len(path) < 2:
        return "valley-free"
    hops = []
    reversed_path = list(reversed(path))
    for left, right in zip(reversed_path, reversed_path[1:]):
        if left == right:
            continue
        step = _step(left, right, relationships)
        if step is None:
            return None
        hops.append(step)

    state = "up"  # up -> flat -> down
    for step in hops:
        if step == _SIDE:
            continue
        if state == "up":
            if step == _UP:
                continue
            if step == _FLAT:
                state = "down"
                continue
            if step == _DOWN:
                state = "down"
                continue
        elif state == "down":
            if step == _DOWN:
                continue
            return "valley"
    return "valley-free"


def is_valley_free(
    path: Sequence[int],
    relationships: Dict[Tuple[int, int], Relationship],
) -> bool:
    """True if *path* complies with the valley-free patterns (unknown
    relationships are treated as violations)."""
    return classify_path(path, relationships) == "valley-free"


def count_peering_steps(
    path: Sequence[int],
    relationships: Dict[Tuple[int, int], Relationship],
) -> int:
    """Number of p2p hops on the path.  A valley-free path has at most one;
    the paper relies on this when pin-pointing the RS setter (section 4.2,
    case 3)."""
    count = 0
    for left, right in zip(path, path[1:]):
        if left == right:
            continue
        step = _step(left, right, relationships)
        if step == _FLAT:
            count += 1
    return count

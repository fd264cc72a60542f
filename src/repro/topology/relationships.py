"""AS link types and the read-only relationship map.

Complements :class:`repro.bgp.policy.Relationship` (a per-session view)
with an undirected link-level taxonomy.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from repro.bgp.policy import Relationship


class LinkType(enum.Enum):
    """Undirected AS link annotation."""

    C2P = "c2p"          #: customer-to-provider (directed: first AS is customer)
    P2P = "p2p"          #: settlement-free bilateral peering
    RS_P2P = "rs-p2p"    #: peering established multilaterally over a route server
    SIBLING = "sibling"  #: same organisation


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

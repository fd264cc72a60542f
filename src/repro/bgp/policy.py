"""Business relationships: the taxonomy the paper uses (c2p, p2p,
sibling, plus the route-server peering flavour of p2p), and the two
modes of a route-server export policy."""

from __future__ import annotations

import enum

#: Route-server export-policy modes (section 4.1): announce to every
#: member except the listed ones (ALL + EXCLUDE communities), or only
#: to the listed ones (NONE + INCLUDE).
MODE_ALL_EXCEPT = "all-except"
MODE_NONE_EXCEPT = "none-except"


class Relationship(enum.Enum):
    """Business relationship of a neighbour *from the local AS's view*.

    ``CUSTOMER`` means the neighbour is our customer, ``PROVIDER`` means
    the neighbour is our provider.  ``RS_PEER`` is a peer reached through
    an IXP route server: economically identical to ``PEER`` but kept
    distinct so analyses can separate bilateral from multilateral peering.
    """

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"
    RS_PEER = "rs-peer"
    SIBLING = "sibling"

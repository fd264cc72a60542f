"""Business relationships: the taxonomy the paper uses (c2p, p2p,
sibling, plus the route-server peering flavour of p2p)."""

from __future__ import annotations

import enum


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

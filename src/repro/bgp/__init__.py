"""BGP substrate: the protocol-level building blocks used by the paper.

This package provides the data-plane-free model of BGP that everything
else is built on: ASNs, IPv4 prefixes, the community attribute, AS
paths, Gao-Rexford import/export policies, and a valley-free propagation
engine that produces the AS paths (with transitive communities) observed
by route collectors and looking glasses.
"""

from repro.bgp.asn import (
    AS_TRANS,
    PRIVATE_ASN_RANGE,
    PRIVATE_ASN_32BIT_RANGE,
    is_private_asn,
    is_reserved_asn,
    is_routable_asn,
    is_32bit_asn,
    Private16BitMapper,
)
from repro.bgp.prefix import Prefix
from repro.bgp.communities import Community
from repro.bgp.attributes import ASPath, Origin
from repro.bgp.policy import (
    Relationship,
    export_allowed,
    default_local_pref,
    ImportPolicy,
    ExportPolicy,
)
from repro.bgp.messages import UpdateMessage
from repro.bgp.propagation import PropagationEngine, PropagationResult

__all__ = [
    "AS_TRANS",
    "PRIVATE_ASN_RANGE",
    "PRIVATE_ASN_32BIT_RANGE",
    "is_private_asn",
    "is_reserved_asn",
    "is_routable_asn",
    "is_32bit_asn",
    "Private16BitMapper",
    "Prefix",
    "Community",
    "ASPath",
    "Origin",
    "Relationship",
    "export_allowed",
    "default_local_pref",
    "ImportPolicy",
    "ExportPolicy",
    "UpdateMessage",
    "PropagationEngine",
    "PropagationResult",
]

"""Registry substrates: an IRR database and a PeeringDB-like registry.

The paper uses registries for three purposes: discovering route-server
members through RPSL AS-SET objects, validating the reciprocity
assumption against IRR import/export filters of AMS-IX members
(section 4.4), and joining inferred links with self-reported peering
policies, geographic scope and looking-glass addresses from PeeringDB
(sections 5.1, 5.2 and 5.5).
"""

from repro.registries.irr import IRRDatabase, AutNumPolicy, ASSet
from repro.registries.peeringdb import PeeringDB, PeeringDBRecord, LookingGlassRecord

__all__ = [
    "IRRDatabase",
    "AutNumPolicy",
    "ASSet",
    "PeeringDB",
    "PeeringDBRecord",
    "LookingGlassRecord",
]

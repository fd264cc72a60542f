"""AS-level topology substrate.

Provides the AS graph container, the link-type taxonomy, the synthetic
Internet generator used as the paper's measurement substrate, an
AS-Rank-style relationship-inference implementation and customer-cone
computation.
"""

from repro.topology.relationships import LinkType
from repro.topology.as_graph import ASNode, ASLink, ASGraph, PeeringPolicy, GeographicScope
from repro.topology.customer_cone import customer_cone, customer_cones
from repro.topology.relationship_inference import (
    RelationshipInference,
    InferredRelationships,
)
from repro.topology.generator import InternetGenerator, GeneratorConfig, IXPSpec

__all__ = [
    "LinkType",
    "ASNode",
    "ASLink",
    "ASGraph",
    "PeeringPolicy",
    "GeographicScope",
    "customer_cone",
    "customer_cones",
    "RelationshipInference",
    "InferredRelationships",
    "InternetGenerator",
    "GeneratorConfig",
    "IXPSpec",
]

"""The paper's contribution: multilateral-peering (MLP) link inference.

The pipeline mirrors section 4 of the paper:

1. **connectivity** — discover which ASes are connected to each IXP route
   server (:mod:`repro.core.connectivity`);
2. **reachability** — recover each member's export policy from the RS
   communities it attaches, observed passively at route collectors
   (:mod:`repro.core.passive`) and actively through looking glasses
   (:mod:`repro.core.active`), interpreted against the per-IXP community
   grammars (:mod:`repro.core.communities`) and merged per member on
   interned policy ids (:mod:`repro.core.planes`);
3. **inference** — combine both, apply the reciprocity assumption and emit
   p2p links (:mod:`repro.core.engine`);
4. **cost accounting** (:mod:`repro.core.query_cost`), **reciprocity
   validation** (:mod:`repro.core.reciprocity`) and **looking-glass
   validation** (:mod:`repro.core.validation`).
"""

from repro.core.communities import RSCommunityInterpreter, IXPIdentification
from repro.core.connectivity import ConnectivityDiscovery, ConnectivityReport
from repro.core.active import ActiveInference, ActiveCollection, ThirdPartyCollection
from repro.core.query_cost import QueryCostModel, QueryPlan
from repro.core.reciprocity import ReciprocityValidator, ReciprocityReport
from repro.core.engine import MLPInferenceEngine, MLPInferenceResult
from repro.core.validation import LinkValidator, ValidationReport

__all__ = [
    "RSCommunityInterpreter",
    "IXPIdentification",
    "ConnectivityDiscovery",
    "ConnectivityReport",
    "ActiveInference",
    "ActiveCollection",
    "ThirdPartyCollection",
    "QueryCostModel",
    "QueryPlan",
    "ReciprocityValidator",
    "ReciprocityReport",
    "MLPInferenceEngine",
    "MLPInferenceResult",
    "LinkValidator",
    "ValidationReport",
]

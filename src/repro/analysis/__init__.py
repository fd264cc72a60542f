"""Evaluation-section analyses (section 5 of the paper).

Each module reproduces one figure or analysis: prefix-announcement CCDF
(figure 5), visibility comparison against passive/active topology data
(figure 6), customer-degree distributions (figure 7), peering-policy
joins (figures 9-11), peering density (figure 12), repellers (figure 13),
hybrid relationships (section 5.6) and the global peering estimation
(section 5.7).
"""

from repro.analysis.prefix_stats import PrefixStats
from repro.analysis.visibility import VisibilityAnalysis, VisibilityReport
from repro.analysis.degrees import DegreeAnalysis, LinkDegreeStats
from repro.analysis.policies import PolicyAnalysis, ParticipationByPolicy, MultiIXPMatrix
from repro.analysis.density import density_per_ixp, DensityReport
from repro.analysis.repellers import RepellerAnalysis, RepellerReport
from repro.analysis.hybrid import HybridRelationshipAnalysis, HybridReport
from repro.analysis.estimation import GlobalEstimator, IXPEstimate, EstimationReport

__all__ = [
    "PrefixStats",
    "VisibilityAnalysis",
    "VisibilityReport",
    "DegreeAnalysis",
    "LinkDegreeStats",
    "PolicyAnalysis",
    "ParticipationByPolicy",
    "MultiIXPMatrix",
    "density_per_ixp",
    "DensityReport",
    "RepellerAnalysis",
    "RepellerReport",
    "HybridRelationshipAnalysis",
    "HybridReport",
    "GlobalEstimator",
    "IXPEstimate",
    "EstimationReport",
]

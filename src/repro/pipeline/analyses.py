"""Per-figure analysis stage: a registry of independent summaries.

Each figure function maps ``(scenario, inference, options)`` to a
small, picklable summary dict — the numbers behind one table or figure
of the paper.  The result's
:class:`~repro.runtime.reachmatrix.ReachabilityMatrix`
(``inference.matrix``) carries the memoised link views every figure
consumes (global link set, per-IXP links).  :func:`run_analyses`
computes the requested figures in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.degrees import DegreeAnalysis
from repro.analysis.density import density_per_ixp
from repro.analysis.visibility import VisibilityAnalysis


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the analysis stage (and nothing upstream of it)."""

    #: Figures to compute, in output order.
    figures: Tuple[str, ...] = ("table2", "visibility", "degrees", "density")
    #: Customer-count threshold for the figure-7 "small degree" fraction.
    small_degree_threshold: int = 10
    #: Restrict figure-12 densities to members with at least one link.
    density_only_members_with_links: bool = False


def _analyse_table2(scenario, inference, options: AnalysisOptions) -> dict:
    graph = scenario.graph
    ixp_ases = {spec.name: len(graph.members_of_ixp(spec.name))
                for spec in scenario.internet.ixp_specs}
    ixp_has_lg = {spec.name: spec.name in scenario.rs_looking_glasses
                  for spec in scenario.internet.ixp_specs}
    return {"rows": inference.table2(ixp_ases=ixp_ases, ixp_has_lg=ixp_has_lg),
            "total_links": len(inference.matrix.all_links()),
            "multi_ixp_links": len(inference.matrix.multi_ixp_links())}


def _analyse_visibility(scenario, inference,
                        options: AnalysisOptions) -> dict:
    analysis = VisibilityAnalysis(
        mlp_links=inference.matrix.all_links(),
        bgp_links=scenario.public_bgp_links(),
        traceroute_links=scenario.traceroute_links(),
    )
    return analysis.report.summary()


def _analyse_degrees(scenario, inference,
                     options: AnalysisOptions) -> dict:
    # One customer count per distinct link endpoint (each
    # ``graph.customers`` call sorts the AS's neighbour map), gathered
    # over the matrix's link keys.
    graph = scenario.graph
    stats = DegreeAnalysis(lambda asn: len(graph.customers(asn))) \
        .analyse_keys(inference.matrix.all_link_keys())
    summary = stats.summary()
    summary["small_degree"] = stats.fraction_small_degree(
        options.small_degree_threshold)
    return summary


def _analyse_density(scenario, inference,
                     options: AnalysisOptions) -> dict:
    members_by_ixp = {spec.name: scenario.graph.rs_members_of_ixp(spec.name)
                      for spec in scenario.internet.ixp_specs}
    report = density_per_ixp(
        inference.matrix.links_by_ixp(), members_by_ixp,
        only_members_with_links=options.density_only_members_with_links)
    return {"mean_densities": report.mean_densities()}


FIGURES: Dict[str, Callable] = {
    "table2": _analyse_table2,
    "visibility": _analyse_visibility,
    "degrees": _analyse_degrees,
    "density": _analyse_density,
}


def run_analyses(
    scenario,
    inference,
    options: Optional[AnalysisOptions] = None,
) -> Dict[str, dict]:
    """Compute the requested figure summaries, in the requested order."""
    options = options or AnalysisOptions()
    names = list(options.figures)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        raise ValueError(f"unknown analysis figures: {unknown!r} "
                         f"(available: {sorted(FIGURES)})")
    return {name: FIGURES[name](scenario, inference, options)
            for name in names}

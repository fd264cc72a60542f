"""The reachability plane: kernels, derived views, result ownership.

The matrix is trusted the same way the propagation kernels are: its
link kernel is differentially tested against the integer-bitmask
reference, and every derived view (densities, openness, exclusions,
link provenance) is checked against the object-level computation it
replaces on a real end-to-end scenario.  The engine's result carries
the matrix it built (``result.matrix``), observation counts included,
however many results one scenario produces.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.density import density_per_ixp
from repro.analysis.hybrid import HybridRelationshipAnalysis
from repro.analysis.policies import PolicyAnalysis
from repro.analysis.repellers import RepellerAnalysis
from repro.analysis.estimation import measured_densities
from repro.core.reachability import infer_links
from repro.pipeline import ArtifactCache
from repro.runtime.bitset import BitsetIndex
from repro.runtime.reachmatrix import reciprocal_links
from repro.scenarios.workloads import scenario_run

from tests.oracle.reachability import (
    export_openness_by_policy,
    reciprocal_pairs,
    repeller_report,
)


# -- kernel --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 99, 20130507])
@pytest.mark.parametrize("require", [True, False])
def test_reciprocal_links_matches_bitmask_reference(seed, require):
    """The numpy M & M.T kernel and the integer-bitmask reference emit
    the identical sorted pair tuple on random ALLOW rows."""
    rng = random.Random(seed)
    size = rng.randint(1, 80)
    universe = tuple(sorted(rng.sample(range(64500, 64500 + 500), size)))
    rows = {}
    for bit in range(size):
        if rng.random() < 0.8:
            mask = rng.getrandbits(size) & ~(1 << bit)
            rows[bit] = mask
    expected = tuple(sorted(reciprocal_pairs(dict(rows), universe, require)))
    assert reciprocal_links(rows, universe, require) == expected


def test_reciprocal_links_empty_universe():
    assert reciprocal_links({}, (), True) == ()


@pytest.mark.parametrize("require", [True, False])
def test_plane_links_match_infer_links(small_scenario, inference_result,
                                       require):
    """Per-IXP plane links equal the object-level infer_links output."""
    matrix = small_scenario.reachability_matrix(inference_result)
    for name, inference in inference_result.per_ixp.items():
        plane = matrix.planes[name]
        expected = tuple(sorted(infer_links(
            inference.reachabilities, inference.members,
            index=BitsetIndex(inference.members),
            require_reciprocity=require)))
        assert plane.links(require) == expected, name


# -- the result's matrix and its derived views ---------------------------------


@pytest.fixture(scope="module")
def matrix(small_scenario, inference_result):
    return small_scenario.reachability_matrix(inference_result)


def test_matrix_mirrors_result_links(matrix, inference_result):
    """The matrix's link views are derived from the per-IXP links the
    result reports, link by link."""
    assert matrix is inference_result.matrix
    per_ixp = {name: inference.links
               for name, inference in inference_result.per_ixp.items()}
    assert matrix.links_by_ixp() == per_ixp
    union = set()
    provenance = {}
    for name in sorted(per_ixp):
        union.update(per_ixp[name])
        for link in per_ixp[name]:
            provenance.setdefault(link, []).append(name)
    assert matrix.all_links() == tuple(sorted(union))
    assert matrix.link_ixps() == {link: tuple(names)
                                  for link, names in provenance.items()}
    assert matrix.multi_ixp_links() == tuple(sorted(
        link for link, names in provenance.items() if len(names) > 1))
    degree = {}
    for a, b in union:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert matrix.peer_counts() == degree
    assert list(matrix.peer_counts()) == sorted(degree)


def test_matrix_provenance_planes(matrix, inference_result):
    for name, inference in inference_result.per_ixp.items():
        plane = matrix.planes[name]
        assert plane.passive_members == frozenset(inference.passive_members)
        assert plane.active_members == frozenset(inference.active_members)
        assert plane.active_queries == inference.active_queries
        covered = [plane.index.universe[bit] for bit in plane.allow_rows]
        assert sorted(covered) == sorted(inference.reachabilities)
        universe = plane.index.universe
        for bit, sources in plane.sources.items():
            assert sources == inference.reachabilities[universe[bit]].sources


def test_matrix_density_matches_object_path(small_scenario, matrix,
                                            inference_result):
    members_by_ixp = {
        spec.name: small_scenario.graph.rs_members_of_ixp(spec.name)
        for spec in small_scenario.internet.ixp_specs}
    object_report = density_per_ixp(
        {name: inference.links
         for name, inference in inference_result.per_ixp.items()},
        members_by_ixp, only_members_with_links=True)
    matrix_report = density_per_ixp(matrix.links_by_ixp(), members_by_ixp,
                                    only_members_with_links=True)
    assert matrix_report.per_member == object_report.per_member
    assert matrix_report.mean_densities() == object_report.mean_densities()


def test_matrix_openness_matches_object_path(small_scenario, matrix,
                                             inference_result):
    analysis = PolicyAnalysis(small_scenario.graph, small_scenario.peeringdb)
    members = {name: small_scenario.graph.rs_members_of_ixp(name)
               for name in inference_result.per_ixp}
    reachabilities = {name: inf.reachabilities
                      for name, inf in inference_result.per_ixp.items()}
    object_openness = export_openness_by_policy(
        small_scenario.peeringdb, reachabilities, members)
    matrix_openness = analysis.export_openness_from_matrix(matrix, members)
    assert set(object_openness) == set(matrix_openness)
    for policy in object_openness:
        # Per-policy value multisets are equal (iteration order within a
        # policy may differ between the two walks).
        assert sorted(object_openness[policy]) == \
            sorted(matrix_openness[policy]), policy


def test_matrix_repellers_match_object_path(small_scenario, matrix,
                                            inference_result):
    analysis = RepellerAnalysis()
    members = {name: small_scenario.graph.rs_members_of_ixp(name)
               for name in inference_result.per_ixp}
    reachabilities = {name: inf.reachabilities
                      for name, inf in inference_result.per_ixp.items()}
    object_report = repeller_report(reachabilities, members)
    matrix_report = analysis.analyse_matrix(matrix, members)
    assert matrix_report.blocking_frequency == object_report.blocking_frequency
    assert matrix_report.blockers == object_report.blockers
    assert matrix_report.total_exclusions == object_report.total_exclusions


def test_matrix_hybrid_matches_object_path(small_scenario, matrix,
                                           inference_result):
    graph = small_scenario.graph
    analysis = HybridRelationshipAnalysis(graph.relationship)
    link_ixps = {}
    for name, inference in inference_result.per_ixp.items():
        for link in inference.links:
            link_ixps.setdefault(link, []).append(name)
    object_report = analysis.analyse(sorted(link_ixps), link_ixps)
    matrix_report = analysis.analyse(matrix.all_links(), matrix.link_ixps())
    assert [c.link for c in matrix_report.candidates] == \
        [c.link for c in object_report.candidates]
    assert [c.ixps for c in matrix_report.candidates] == \
        [c.ixps for c in object_report.candidates]


def test_matrix_estimation_views(matrix):
    measured = measured_densities(matrix)
    assert set(measured) == set(matrix.planes)
    for row in measured.values():
        assert 0.0 <= row["link_density"] <= 1.0
        assert 0.0 <= row["mean_member_density"] <= 1.0


def test_matrix_views_are_memoised(matrix):
    assert matrix.all_links() is matrix.all_links()
    assert matrix.multi_ixp_links() is matrix.multi_ixp_links()
    assert matrix.link_ixps() is matrix.link_ixps()
    assert matrix.peer_counts() is matrix.peer_counts()


def test_matrix_pickles(matrix):
    clone = pickle.loads(pickle.dumps(matrix))
    assert clone.all_links() == matrix.all_links()
    assert clone.links_by_ixp() == matrix.links_by_ixp()
    assert set(clone.planes) == set(matrix.planes)


# -- result ownership ----------------------------------------------------------


def _observation_counts(matrix):
    return {name: dict(plane.observation_counts)
            for name, plane in matrix.planes.items()}


def test_every_result_keeps_the_matrix_the_engine_built():
    """Five inference runs on one scenario: each result carries the
    engine's own planes (``built_by == "bitset"``) with the observation
    counts the engine built, the first result as much as the last."""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    variants = [{}, {"require_reciprocity": False}, {"use_active": False},
                {"use_passive": False}, {}]
    results = [scenario.run_inference(**options) for options in variants]
    for result in results:
        matrix = scenario.reachability_matrix(result)
        assert matrix is result.matrix
        assert matrix.built_by == "bitset"
        assert matrix.links_by_ixp() == {
            name: inference.links
            for name, inference in result.per_ixp.items()}
    # An independent build of the same scenario (its own context and
    # plane cache) counts the same observations.
    fresh = scenario_run("tiny", cache=ArtifactCache()).inference().matrix
    counts = _observation_counts(fresh)
    assert any(counts.values())
    assert _observation_counts(results[0].matrix) == counts
    assert _observation_counts(results[-1].matrix) == counts


def test_numpy_available_marker():
    """numpy is a hard dependency: the M & M.T kernel is the only link
    path."""
    import numpy  # noqa: F401

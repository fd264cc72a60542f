"""The reachability plane: kernels, columns, derived views, result ownership.

The matrix is trusted the same way the propagation kernels are: its
link kernel and its column builders (``allow_plane``,
``build_reachability_plane``) are differentially tested against the
integer-bitmask rule of ``tests/oracle/reachability.py``, and every
derived view (densities, openness, exclusions, link provenance) is
checked against the object-level computation it replaces on a real
end-to-end scenario.  The engine's result is the matrix it built
(``result.matrix``), observation counts included, and every result of
one collection shares the planes cached on the context.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.analysis.density import density_per_ixp
from repro.analysis.hybrid import HybridRelationshipAnalysis
from repro.analysis.policies import PolicyAnalysis
from repro.analysis.repellers import RepellerAnalysis
from repro.analysis.estimation import measured_densities
from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT
from repro.core.planes import ObservationPlane, build_reachability_plane
from repro.pipeline import ArtifactCache
from repro.runtime.bitset import BitsetIndex
from repro.runtime.reachmatrix import allow_plane, unpack_plane
from repro.scenarios.workloads import scenario_run

from tests.oracle.reachability import (
    allow_mask_for,
    export_openness_by_policy,
    iter_bits,
    mask_of,
    pack_rows,
    plane_columns,
    plane_of_rows,
    reciprocal_pairs,
    repeller_report,
    unpack_mask,
)
from tests.oracle.steps import MemberReachability, infer_links


# -- kernel --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 99, 20130507])
@pytest.mark.parametrize("require", [True, False])
def test_reciprocal_links_matches_bitmask_reference(seed, require):
    """A plane's numpy M & M.T kernel and the integer-bitmask reference
    emit the identical sorted pair tuple on random ALLOW rows."""
    rng = random.Random(seed)
    size = rng.randint(1, 80)
    universe = tuple(sorted(rng.sample(range(64500, 64500 + 500), size)))
    rows = {}
    for bit in range(size):
        if rng.random() < 0.8:
            mask = rng.getrandbits(size) & ~(1 << bit)
            rows[bit] = mask
    expected = tuple(sorted(reciprocal_pairs(dict(rows), universe, require)))
    assert plane_of_rows("X", universe, rows).links(require) == expected


def test_reciprocal_links_empty_universe():
    assert plane_of_rows("X", ()).links(True) == ()


@pytest.mark.parametrize("require", [True, False])
def test_plane_links_match_infer_links(inference_result, object_result,
                                       require):
    """Per-IXP plane links equal the oracle's infer_links (the
    integer-bitmask N_a and reciprocity kernel) over the oracle's
    reachabilities."""
    matrix = inference_result.matrix
    for name, inference in object_result.per_ixp.items():
        plane = matrix.planes[name]
        expected = tuple(sorted(infer_links(
            inference.reachabilities, inference.members,
            index=BitsetIndex(inference.members),
            require_reciprocity=require)))
        assert plane.links(require) == expected, name


# -- the plane columns against the integer rule --------------------------------


def _policy_cases(size, rng):
    """Hand-made ``(member ASN -> (mode, listed))`` policies over a
    *size*-member universe: random ALL/NONE lists that also name ASNs
    outside the universe, a member that lists itself, none-except with
    an empty list, all-except with an empty list, and members left
    uncovered."""
    universe = tuple(range(64512, 64512 + 2 * size, 2))
    outside = (1, 64513, 4_200_000_000)
    policies = {}
    for position, asn in enumerate(universe):
        draw = rng.random()
        if draw < 0.15:
            continue
        if position % 7 == 0:
            policies[asn] = (MODE_NONE_EXCEPT, frozenset())
        elif position % 7 == 1:
            policies[asn] = (MODE_ALL_EXCEPT, frozenset({asn}))
        elif position % 7 == 2:
            policies[asn] = (MODE_ALL_EXCEPT, frozenset())
        else:
            listed = set(rng.sample(universe, min(size, rng.randint(0, 6))))
            listed.update(rng.sample(outside, rng.randint(0, 2)))
            if rng.random() < 0.3:
                listed.add(asn)
            mode = MODE_ALL_EXCEPT if draw < 0.6 else MODE_NONE_EXCEPT
            policies[asn] = (mode, frozenset(listed))
    # Shared policies exercise the one-row-per-policy grouping.
    if len(policies) > 3:
        first, *rest = sorted(policies)
        for asn in rest[::3]:
            policies[asn] = policies[first]
    return universe, policies


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 130])
def test_allow_plane_matches_integer_rule(size):
    rng = random.Random(f"allow-{size}")
    universe, policies = _policy_cases(size, rng)
    index = BitsetIndex(universe)
    by_bit = {index.bit_of[asn]: policy for asn, policy in policies.items()}
    allow = allow_plane(by_bit, index)
    expected = pack_rows(
        {bit: allow_mask_for(mode, listed, index,
                             member_asn=index.universe[bit])
         for bit, (mode, listed) in by_bit.items()}, size)
    assert allow.dtype == np.dtype("<u8")
    assert allow.shape == expected.shape == (size, max(1, -(-size // 64)))
    assert np.array_equal(allow, expected)
    # Unpacked, the plane is the per-member allowed sets.
    dense = unpack_plane(allow, size)
    for bit in range(size):
        assert set(np.flatnonzero(dense[bit]).tolist()) == \
            set(iter_bits(unpack_mask(expected[bit])))


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 130])
def test_build_reachability_plane_matches_integer_rule(size):
    """Every column of a built plane equals the oracle's integer build,
    and the observation counts are the rows per member in the index."""
    rng = random.Random(f"build-{size}")
    universe, policies = _policy_cases(size, rng)
    index = BitsetIndex(universe)
    sources = ({"passive"}, {"active"}, {"third-party"},
               {"passive", "active"})
    reachabilities = {
        asn: MemberReachability(
            member_asn=asn, ixp_name="X", mode=mode, listed=listed,
            sources=frozenset(rng.choice(sources)),
            prefixes_observed=rng.randint(1, 9),
            inconsistent_prefixes=rng.randint(0, 2))
        for asn, (mode, listed) in policies.items()}
    # A merged member outside the universe is dropped.
    reachabilities[7] = MemberReachability(
        member_asn=7, ixp_name="X", mode=MODE_ALL_EXCEPT,
        listed=frozenset(), sources=frozenset({"passive"}),
        prefixes_observed=1)
    observation = ObservationPlane(ixp_name="X")
    observation.passive_members = set(rng.sample(universe, size // 3)) | {7}
    observation.active_members = set(rng.sample(universe, size // 4)) | {9}
    observation.active_queries = 11
    observation.rows = [(rng.choice(universe + (7,)), 0, 0, 0)
                        for _ in range(3 * size)]
    merged = {asn: ((reach.mode, reach.listed), reach.sources,
                    reach.prefixes_observed, reach.inconsistent_prefixes)
              for asn, reach in reachabilities.items()}
    plane = build_reachability_plane(observation, merged, index)
    expected = plane_columns(index, reachabilities,
                             observation.passive_members,
                             observation.active_members)
    for asn, count in Counter(row[0] for row in observation.rows).items():
        if asn in index.bit_of:
            expected["counts"][index.bit_of[asn], 2] = count
    for column, dtype, shape in (("allow", "<u8", (size, None)),
                                 ("masks", "<u8", (4, None)),
                                 ("counts", "<i8", (size, 3))):
        array = getattr(plane, column)
        assert array.dtype == np.dtype(dtype), column
        assert array.shape[0] == shape[0], column
        assert not array.flags.writeable, column
        assert np.array_equal(array, expected[column]), column
    assert unpack_mask(plane.masks[0]) == mask_of(index, policies)
    assert plane.policies == {index.bit_of[asn]: policy
                              for asn, policy in policies.items()}
    assert plane.sources == {index.bit_of[asn]: reach.sources
                             for asn, reach in reachabilities.items()
                             if asn in index.bit_of}
    assert plane.passive_members == frozenset(observation.passive_members)
    assert plane.active_members == frozenset(observation.active_members)
    assert plane.active_queries == 11
    with pytest.raises(ValueError):
        plane.allow[..., 0] = 0


# -- the result's matrix and its derived views ---------------------------------


@pytest.fixture(scope="module")
def matrix(small_scenario, inference_result):
    return small_scenario.reachability_matrix(inference_result)


def test_matrix_mirrors_result_links(matrix, inference_result,
                                     object_result):
    """The result's matrix: its link views are derived from the per-IXP
    links the object oracle infers, link by link."""
    assert matrix is inference_result.matrix
    per_ixp = {name: inference.links
               for name, inference in object_result.per_ixp.items()}
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


def test_matrix_provenance_planes(matrix, object_result):
    for name, inference in object_result.per_ixp.items():
        plane = matrix.planes[name]
        assert plane.passive_members == frozenset(inference.passive_members)
        assert plane.active_members == frozenset(inference.active_members)
        assert plane.active_queries == inference.active_queries
        universe = plane.index.universe
        covered = unpack_plane(plane.masks[0], plane.num_members)
        assert sorted(universe[bit] for bit in np.flatnonzero(covered)) \
            == sorted(inference.reachabilities)
        for bit, sources in plane.sources.items():
            assert sources == inference.reachabilities[universe[bit]].sources


def test_matrix_density_matches_object_path(small_scenario, matrix,
                                            object_result):
    members_by_ixp = {
        spec.name: small_scenario.graph.rs_members_of_ixp(spec.name)
        for spec in small_scenario.internet.ixp_specs}
    object_report = density_per_ixp(
        {name: inference.links
         for name, inference in object_result.per_ixp.items()},
        members_by_ixp, only_members_with_links=True)
    matrix_report = density_per_ixp(matrix.links_by_ixp(), members_by_ixp,
                                    only_members_with_links=True)
    assert matrix_report.per_member == object_report.per_member
    assert matrix_report.mean_densities() == object_report.mean_densities()


def test_matrix_openness_matches_object_path(small_scenario, matrix,
                                             object_result):
    analysis = PolicyAnalysis(small_scenario.graph, small_scenario.peeringdb)
    members = {name: small_scenario.graph.rs_members_of_ixp(name)
               for name in object_result.per_ixp}
    reachabilities = {name: inf.reachabilities
                      for name, inf in object_result.per_ixp.items()}
    object_openness = export_openness_by_policy(
        small_scenario.peeringdb, reachabilities, members)
    matrix_openness = analysis.export_openness_from_matrix(matrix, members)
    assert set(object_openness) == set(matrix_openness)
    for policy in object_openness:
        # Per-policy value multisets are equal (iteration order within a
        # policy may differ between the two walks).
        assert sorted(object_openness[policy]) == \
            sorted(matrix_openness[policy]), policy


def test_default_population_openness_is_the_row_popcount(matrix,
                                                         object_result):
    """Without an explicit population, openness is the share of the
    plane universe the row allows: the object count over the universe."""
    for name, inference in object_result.per_ixp.items():
        plane = matrix.planes[name]
        universe = plane.index.universe
        for asn, reach in inference.reachabilities.items():
            others = len(universe) - 1
            expected = (len(reach.allowed_members(universe)) / others
                        if others > 0 else 0.0)
            assert plane.openness(asn) == expected, (name, asn)


def test_matrix_repellers_match_object_path(small_scenario, matrix,
                                            object_result):
    analysis = RepellerAnalysis()
    members = {name: small_scenario.graph.rs_members_of_ixp(name)
               for name in object_result.per_ixp}
    reachabilities = {name: inf.reachabilities
                      for name, inf in object_result.per_ixp.items()}
    object_report = repeller_report(reachabilities, members)
    matrix_report = analysis.analyse_matrix(matrix, members)
    assert matrix_report.blocking_frequency == object_report.blocking_frequency
    assert matrix_report.blockers == object_report.blockers
    assert matrix_report.total_exclusions == object_report.total_exclusions


def test_matrix_hybrid_matches_object_path(small_scenario, matrix,
                                           object_result):
    graph = small_scenario.graph
    analysis = HybridRelationshipAnalysis(graph.relationship)
    link_ixps = {}
    for name, inference in object_result.per_ixp.items():
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
    for name, plane in matrix.planes.items():
        for column in ("allow", "masks", "counts"):
            assert np.array_equal(getattr(clone.planes[name], column),
                                  getattr(plane, column)), (name, column)


# -- result ownership ----------------------------------------------------------


def _observation_counts(matrix):
    return {name: plane.counts[:, 2].tolist()
            for name, plane in matrix.planes.items()}


def test_every_result_keeps_the_matrix_the_engine_built():
    """Five inference runs on one scenario: each result is the engine's
    own planes (``built_by == "bitset"``) with the observation counts
    the engine built, the first result as much as the last, and results
    of one collection share the planes the scenario memoises."""
    scenario = scenario_run("tiny", cache=ArtifactCache()).scenario()
    variants = [{}, {"require_reciprocity": False}, {"use_active": False},
                {"use_passive": False}, {}]
    results = [scenario.run_inference(**options) for options in variants]
    for result, options in zip(results, variants):
        matrix = scenario.reachability_matrix(result)
        assert matrix is result.matrix
        assert matrix.built_by == "bitset"
        flag = options.get("require_reciprocity", True)
        assert matrix.links_by_ixp() == {
            name: plane.links(flag) for name, plane in matrix.planes.items()}
    for name, plane in results[0].matrix.planes.items():
        assert results[1].matrix.planes[name] is plane
        assert results[4].matrix.planes[name] is plane
        assert results[2].matrix.planes[name] is not plane
    # An independent build of the same scenario (its own plane memo)
    # counts the same observations.
    fresh = scenario_run("tiny", cache=ArtifactCache()).inference().matrix
    counts = _observation_counts(fresh)
    assert any(any(row) for row in counts.values())
    assert _observation_counts(results[0].matrix) == counts
    assert _observation_counts(results[-1].matrix) == counts


def test_numpy_available_marker():
    """numpy is a hard dependency: the M & M.T kernel is the only link
    path."""
    import numpy  # noqa: F401

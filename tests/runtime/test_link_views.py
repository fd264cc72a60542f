"""Matrix link views and plane link keys against the walks they replaced.

A plane builds its links once per reciprocity flag, as ascending uint64
keys and as pairs of the universe's own int objects, from one
upper-triangle pass; the matrix derives ``all_links``,
``multi_ixp_links``, ``link_ixps`` and ``peer_counts`` from one sort of
the concatenated per-IXP keys.  Every case here is diffed against
``tests/oracle/reachability.py`` (set union and sort, per-link walks,
the integer-bitmask kernel):

- every registered scenario at tiny under the four ablations, whose
  plane columns are also diffed against the object oracle's planes
  (built with the integer-bitmask rule), member by member;
- the same matrices loaded back from their exported artifacts, and
  through a pickle round trip;
- hand-built planes at the word boundaries (0, 1, 63, 64 and 65
  members), at 2**31 and at the top of the 32-bit ASN space, with
  all-allow, none-allow and missing rows, under both flags.

An ASN the key format cannot hold raises instead of wrapping.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.fragments import MAX_KEYED, unpack_links
from repro.runtime.reachmatrix import (
    ReachabilityMatrix,
    link_keys_of,
    link_rows,
)
from repro.scenarios.spec import get_scenario, scenario_names
from repro.service.artifact import load_matrix, save_matrix, verify_identity

from tests.oracle.inference import differences, object_inference
from tests.oracle.reachability import (
    integer_rows,
    link_views,
    matrix_differences,
    plane_of_rows,
    reciprocal_pairs,
)

#: The paper's Sec. 4 ablations, as ``Scenario.run_inference`` options.
VARIANTS = {
    "full": {},
    "passive-only": {"use_active": False},
    "active-only": {"use_passive": False},
    "no-reciprocity": {"require_reciprocity": False},
}
VIEWS = ("all_links", "multi_ixp_links", "link_ixps", "peer_counts")


def _views(matrix):
    return {name: getattr(matrix, name)() for name in VIEWS}


def _fresh(matrix):
    """A new matrix over *matrix*'s planes and per-IXP links: nothing
    derived yet."""
    names = sorted(matrix.planes)
    return ReachabilityMatrix(
        matrix.planes, matrix.links_by_ixp(),
        {name: matrix.link_keys_of(name) for name in names},
        built_by=matrix.built_by)


# -- every scenario, every ablation --------------------------------------------


@pytest.fixture(scope="module", params=scenario_names())
def ablations(request):
    """``(name, scenario, {variant: result})`` for one scenario at
    tiny."""
    name = request.param
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    scenario = run.scenario()
    return name, scenario, {variant: scenario.run_inference(**options)
                            for variant, options in VARIANTS.items()}


def test_ablation_views_match_oracle(ablations):
    """Every ablation's planes equal the object oracle's, column by
    column and member by member, and its link views match the walks."""
    name, scenario, results = ablations
    for variant, result in results.items():
        matrix = result.matrix
        expected = object_inference(scenario, **VARIANTS[variant])
        assert differences(result, expected) == [], (name, variant)
        assert matrix.links_by_ixp() == {
            ixp: inference.links
            for ixp, inference in expected.per_ixp.items()}, (name, variant)
        assert matrix_differences(matrix) == [], (name, variant)
        assert list(matrix.link_ixps()) == list(matrix.all_links())
    full = set(results["full"].matrix.all_links())
    assert full
    assert full <= set(results["no-reciprocity"].matrix.all_links())


def test_views_hand_out_existing_objects(ablations):
    """``all_links`` returns the per-IXP tuples' pair objects, and a
    plane's pairs hold its universe's int objects: no view allocates a
    pair or an ASN per link."""
    name, _, results = ablations
    matrix = results["full"].matrix
    pair_ids = {id(pair) for links in matrix.links_by_ixp().values()
                for pair in links}
    assert all(id(pair) in pair_ids for pair in matrix.all_links()), name
    for plane in matrix.planes.values():
        asn_ids = {id(asn) for asn in plane.index.universe}
        for flag in (True, False):
            assert all(id(a) in asn_ids and id(b) in asn_ids
                       for a, b in plane.links(flag)), (name, plane.ixp_name)


def test_exported_artifact_views(ablations, tmp_path):
    """Each ablation's matrix, saved and mmap-loaded: the loaded matrix's
    views match the oracle and the built matrix, and the link columns
    are the keys' rows."""
    name, _, results = ablations
    for variant, result in results.items():
        matrix = result.matrix
        handle = load_matrix(save_matrix(matrix, tmp_path / variant))
        loaded = handle.matrix
        assert matrix_differences(loaded) == [], (name, variant)
        assert loaded.links_by_ixp() == matrix.links_by_ixp()
        assert _views(loaded) == _views(matrix), (name, variant)
        assert np.array_equal(handle.all_links,
                              link_rows(matrix.all_link_keys()))
        assert verify_identity(matrix, handle) == [], (name, variant)


def test_pickle_round_trip(ablations):
    """A pickled matrix answers the same views, whether it was pickled
    before or after they were derived."""
    name, _, results = ablations
    for variant, result in results.items():
        matrix = result.matrix
        expected = _views(matrix)
        for source in (_fresh(matrix), matrix):
            clone = pickle.loads(pickle.dumps(source))
            assert matrix_differences(clone) == [], (name, variant)
            assert _views(clone) == expected, (name, variant)
            assert np.array_equal(clone.all_link_keys(),
                                  matrix.all_link_keys())


# -- hand-built planes ---------------------------------------------------------


def _universe(size, shape):
    """*size* ascending member ASNs: small ones, ones straddling 2**31,
    or ones ending at the top of the 32-bit space."""
    if shape == "small":
        return tuple(range(64500, 64500 + 3 * size, 3))
    if shape == "2**31":
        return tuple(range(2 ** 31 - size // 2, 2 ** 31 - size // 2 + size))
    return tuple(range(MAX_KEYED - size + 1, MAX_KEYED + 1))


def _rows(size, kind, rng):
    full = (1 << size) - 1
    if kind == "all-allow":
        return {bit: full & ~(1 << bit) for bit in range(size)}
    if kind == "none-allow":
        return {bit: 0 for bit in range(size)}
    # Random rows, some members without one.
    return {bit: rng.getrandbits(max(size, 1)) & full & ~(1 << bit)
            for bit in range(size) if rng.random() < 0.8}


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65])
@pytest.mark.parametrize("shape", ["small", "2**31", "2**32-1"])
@pytest.mark.parametrize("kind", ["random", "all-allow", "none-allow"])
@pytest.mark.parametrize("require", [True, False])
def test_hand_built_plane(size, shape, kind, require):
    rng = random.Random(f"{size}-{shape}-{kind}")
    universe = _universe(size, shape)
    assert len(universe) == size
    rows = _rows(size, kind, rng)
    plane = plane_of_rows("X", universe, rows)
    assert integer_rows(plane.allow) == {bit: mask for bit, mask
                                         in rows.items() if mask}
    expected = tuple(sorted(reciprocal_pairs(rows, universe, require)))
    assert plane.links(require) == expected
    keys = plane.link_keys(require)
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, link_keys_of(expected))
    assert np.all(keys[1:] > keys[:-1])
    lo, hi = unpack_links(keys)
    assert list(zip(lo.tolist(), hi.tolist())) == list(expected)
    if kind == "all-allow":
        assert len(expected) == size * (size - 1) // 2
    if kind == "none-allow":
        assert expected == () and len(keys) == 0


@pytest.mark.parametrize("require", [True, False])
def test_hand_built_matrix(require):
    """Planes sharing members (so links repeat across IXPs), at every
    boundary size and universe shape: the matrix views match the
    oracle."""
    rng = random.Random(20130501)
    planes = {}
    for shape in ("small", "2**31", "2**32-1"):
        for size in (0, 1, 63, 64, 65):
            universe = _universe(size, shape)
            # Two planes per universe, so their links overlap: random
            # and all-allow rows (none-allow at 63 members).
            for copy in range(2):
                name = f"{shape}-{size}-{copy}"
                kind = ("random", "all-allow")[copy] if size != 63 \
                    else "none-allow"
                planes[name] = plane_of_rows(name, universe,
                                             _rows(size, kind, rng))
    matrix = ReachabilityMatrix(
        planes,
        {name: plane.links(require) for name, plane in planes.items()},
        {name: plane.link_keys(require) for name, plane in planes.items()})
    assert matrix_differences(matrix) == []
    assert matrix.multi_ixp_links()
    assert max(matrix.peer_counts()) == MAX_KEYED
    assert _views(matrix) == link_views(matrix.links_by_ixp())


def test_empty_matrix():
    matrix = ReachabilityMatrix({}, {}, {})
    assert _views(matrix) == {"all_links": (), "multi_ixp_links": (),
                              "link_ixps": {}, "peer_counts": {}}
    assert len(matrix.all_link_keys()) == 0
    assert link_rows(matrix.all_link_keys()).shape == (0, 2)


def test_keys_must_match_links():
    planes = {"X": plane_of_rows("X", (1, 2, 3))}
    with pytest.raises(ValueError):
        ReachabilityMatrix(planes, {"X": ((1, 2),)}, {"X": []})
    with pytest.raises(ValueError):
        ReachabilityMatrix(planes, {"X": ((1, 2),)}, {})


# -- unkeyable ASNs ------------------------------------------------------------


@pytest.mark.parametrize("universe", [
    (5, MAX_KEYED + 1),
    (-1, 5),
    (1, 2 ** 40),
    (3, 2 ** 64),
])
def test_unkeyable_member_raises(universe):
    """A member ASN outside [0, MAX_KEYED] raises; it never wraps into
    another link's key."""
    plane = plane_of_rows("X", universe, {0: 0b10, 1: 0b01})
    with pytest.raises(ValueError, match="link-key range"):
        plane.link_keys()
    with pytest.raises(ValueError, match="link-key range"):
        plane.links()


@pytest.mark.parametrize("pair", [
    (0, MAX_KEYED + 1), (-1, 5), (1, 2 ** 40)])
def test_unkeyable_link_raises(pair):
    with pytest.raises(ValueError, match="link-key range"):
        link_keys_of([pair])


def test_link_beyond_int64_raises():
    with pytest.raises(OverflowError):
        link_keys_of([(1, 2 ** 64)])

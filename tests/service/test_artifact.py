"""On-disk reachability artifact: round trips, bit-identity, tampering.

The schema's contract is *bit-identity*: an artifact written by
:func:`save_matrix` and loaded back through ``np.load(mmap_mode="r")``
must answer every matrix-level question — allow planes, provenance
masks, counts, link sets, Table 2 — exactly like the in-memory build it
came from, on every registered scenario.  A plane's ``allow``, ``masks``
and ``counts`` are the artifact's columns themselves: written as built,
loaded as the mmap'd arrays.
"""

import json
import pickle

import numpy as np
import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.reachmatrix import pack_bits, packed_words, unpack_plane
from repro.scenarios import scenario_names
from repro.scenarios.spec import get_scenario
from repro.service.artifact import (
    FORMAT_VERSION,
    ArtifactFormatError,
    load_matrix,
    save_matrix,
    verify_identity,
)

from tests.oracle.reachability import (
    integer_rows,
    pack_mask,
    pack_rows,
    unpack_mask,
)

#: One shared cache: upstream stages (topology .. connectivity) are
#: reused across the per-scenario round-trip tests.
_CACHE = ArtifactCache()


def build(name: str) -> ScenarioRun:
    spec = get_scenario(name)
    return ScenarioRun(spec.config("tiny"), scenario=name, cache=_CACHE)


class TestPackedMasks:
    """``pack_bits``/``unpack_plane`` against the integer-bitmask
    packing of ``tests/oracle/reachability.py``."""

    def test_mask_round_trip_random(self):
        rng = np.random.default_rng(7)
        for size in (1, 63, 64, 65, 200):
            for _ in range(20):
                bits = rng.random(size) < 0.5
                row = pack_bits(bits)
                assert row.dtype == np.dtype("<u8")
                assert row.shape == (packed_words(size),)
                mask = sum(1 << int(bit) for bit in np.flatnonzero(bits))
                assert np.array_equal(row, pack_mask(mask, size))
                assert unpack_mask(row) == mask
                assert np.array_equal(unpack_plane(row, size), bits)

    def test_rows_to_matrix_round_trip(self):
        size = 130
        rows = {3: (1 << 5) | (1 << 127), 7: (1 << 3)}
        packed = pack_rows(rows, size)
        dense = unpack_plane(packed, size)
        assert dense.shape == (size, size)
        assert dense[3, 5] and dense[3, 127] and dense[7, 3]
        assert int(dense.sum()) == 3
        assert np.array_equal(pack_bits(dense), packed)
        assert integer_rows(pack_bits(dense)) == rows
        assert pack_bits(np.zeros((4, 0), dtype=bool)).shape == (4, 1)
        assert unpack_plane(pack_bits(np.zeros((0, 0), dtype=bool)),
                            0).shape == (0, 0)


@pytest.mark.parametrize("name", scenario_names())
def test_round_trip_is_bit_identical(name, tmp_path):
    run = build(name)
    directory = run.export_reachability(tmp_path / name, size="tiny")
    for mmap in (True, False):
        handle = load_matrix(directory, mmap=mmap)
        problems = verify_identity(run.reachability(), handle,
                                   table2=run.table2())
        assert problems == [], f"{name} (mmap={mmap}): {problems}"
        assert handle.scenario == name
        assert handle.size == "tiny"


def test_loaded_planes_are_the_mmapd_columns(tmp_path):
    """``load_matrix(mmap=True)`` hands each plane its ``np.memmap``
    columns, equal to the built ones (which are read-only), and a
    loaded plane survives a pickle round trip."""
    run = build("europe2013")
    built = run.reachability()
    handle = load_matrix(run.export_reachability(tmp_path / "a"), mmap=True)
    for name, plane in built.planes.items():
        loaded = handle.matrix.planes[name]
        for column, dtype in (("allow", "<u8"), ("masks", "<u8"),
                              ("counts", "<i8")):
            mine, theirs = getattr(plane, column), getattr(loaded, column)
            assert not mine.flags.writeable, (name, column)
            assert isinstance(theirs, np.memmap), (name, column)
            assert theirs.dtype == np.dtype(dtype), (name, column)
            assert np.array_equal(mine, theirs), (name, column)
        clone = pickle.loads(pickle.dumps(loaded))
        for column in ("allow", "masks", "counts"):
            assert np.array_equal(getattr(clone, column),
                                  getattr(plane, column)), (name, column)
        assert clone.policies == plane.policies
        assert clone.links() == plane.links()
        assert clone.link_keys().tolist() == plane.link_keys().tolist()


class TestTampering:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        run = build("europe2013")
        return run.export_reachability(
            tmp_path_factory.mktemp("artifact") / "europe2013")

    def _patched(self, artifact, tmp_path, **overrides):
        import shutil
        clone = tmp_path / "clone"
        shutil.copytree(artifact, clone)
        header = json.loads((clone / "header.json").read_text())
        header.update(overrides)
        (clone / "header.json").write_text(json.dumps(header))
        return clone

    def test_future_version_is_rejected(self, artifact, tmp_path):
        clone = self._patched(artifact, tmp_path,
                              version=FORMAT_VERSION + 1)
        with pytest.raises(ArtifactFormatError, match="version"):
            load_matrix(clone)

    def test_wrong_endianness_is_rejected(self, artifact, tmp_path):
        clone = self._patched(artifact, tmp_path, endianness="big")
        with pytest.raises(ArtifactFormatError, match="endian"):
            load_matrix(clone)

    def test_wrong_format_name_is_rejected(self, artifact, tmp_path):
        clone = self._patched(artifact, tmp_path, format="something-else")
        with pytest.raises(ArtifactFormatError, match="format"):
            load_matrix(clone)

    def test_missing_header_is_rejected(self, artifact, tmp_path):
        import shutil
        clone = tmp_path / "clone"
        shutil.copytree(artifact, clone)
        (clone / "header.json").unlink()
        with pytest.raises(ArtifactFormatError, match="header"):
            load_matrix(clone)

    def test_flipped_column_byte_is_rejected(self, artifact, tmp_path):
        """One flipped byte in any saved column fails its header
        checksum, whether the column is mmap'd or read."""
        import shutil
        header = json.loads((artifact / "header.json").read_text())
        assert set(header["sha256"]) == \
            {path.name for path in artifact.glob("*.npy")}
        for name in ("plane_00_allow.npy", "peer_neighbors.npy"):
            clone = tmp_path / name
            shutil.copytree(artifact, clone)
            column = bytearray((clone / name).read_bytes())
            column[-1] ^= 0x01  # the last data byte, past the npy header
            (clone / name).write_bytes(bytes(column))
            for mmap in (True, False):
                with pytest.raises(ArtifactFormatError, match=name):
                    load_matrix(clone, mmap=mmap)

    def test_missing_checksums_are_rejected(self, artifact, tmp_path):
        clone = self._patched(artifact, tmp_path, sha256=None)
        with pytest.raises(ArtifactFormatError, match="checksum"):
            load_matrix(clone)

    def test_missing_plane_file_is_rejected(self, artifact, tmp_path):
        import shutil
        clone = tmp_path / "clone"
        shutil.copytree(artifact, clone)
        (clone / "plane_00_allow.npy").unlink()
        with pytest.raises(ArtifactFormatError):
            load_matrix(clone)

    # -- column dtypes and shapes (checksums rewritten to match) -----------

    def _rewritten(self, artifact, tmp_path, name, array):
        """A copy of *artifact* whose column *name* is *array*, with the
        header checksum rewritten to match, so only the column's dtype
        and shape checks can refuse it."""
        import hashlib
        import shutil
        clone = tmp_path / "clone"
        shutil.copytree(artifact, clone)
        np.save(clone / name, array)
        header = json.loads((clone / "header.json").read_text())
        header["sha256"][name] = hashlib.sha256(
            (clone / name).read_bytes()).hexdigest()
        (clone / "header.json").write_text(json.dumps(header))
        return clone

    @pytest.mark.parametrize("defect", ["1-D", "3 columns", "float"])
    def test_malformed_links_column_is_rejected(self, artifact, tmp_path,
                                                defect):
        links = np.load(artifact / "plane_00_links.npy")
        assert links.shape[0] > 0
        malformed = {
            "1-D": links.ravel(),
            "3 columns": np.hstack([links, links[:, :1]]),
            "float": links.astype("<f8"),
        }[defect]
        clone = self._rewritten(artifact, tmp_path, "plane_00_links.npy",
                                malformed)
        for mmap in (True, False):
            with pytest.raises(ArtifactFormatError,
                               match="plane_00_links.npy"):
                load_matrix(clone, mmap=mmap)

    @pytest.mark.parametrize("value", [-1, 2 ** 32])
    def test_unkeyable_link_is_rejected(self, artifact, tmp_path, value):
        """A link ASN outside the 32-bit key range is refused at load,
        never wrapped into another link's key."""
        links = np.load(artifact / "plane_00_links.npy")
        links[0, 1] = value
        clone = self._rewritten(artifact, tmp_path, "plane_00_links.npy",
                                links)
        with pytest.raises(ArtifactFormatError,
                           match="plane_00_links.npy.*link-key range"):
            load_matrix(clone)

    @pytest.mark.parametrize("defect", ["swapped", "hi + 2**32",
                                        "dropped row"])
    def test_verify_catches_doctored_links_column(self, artifact, tmp_path,
                                                  defect):
        """``links.npy`` is served as is, so ``verify_identity`` compares
        it with the built matrix value for value: a row whose packed key
        would not change (``hi + 2**32`` on an odd ``lo``) is caught too."""
        links = np.load(artifact / "links.npy")
        if defect == "swapped":
            links[0] = links[0, ::-1].copy()
        elif defect == "hi + 2**32":
            row = int(np.flatnonzero(links[:, 0] % 2 == 1)[0])
            links[row, 1] += 2 ** 32
        else:
            links = links[:-1].copy()
        clone = self._rewritten(artifact, tmp_path, "links.npy", links)
        problems = verify_identity(build("europe2013").reachability(),
                                   load_matrix(clone))
        assert problems == ["links.npy differs from all_links"], problems

    def test_unsorted_members_are_rejected(self, artifact, tmp_path):
        members = np.load(artifact / "plane_00_members.npy")
        assert len(members) > 1
        clone = self._rewritten(artifact, tmp_path, "plane_00_members.npy",
                                members[::-1].copy())
        with pytest.raises(ArtifactFormatError, match="sorted"):
            load_matrix(clone)

    @pytest.mark.parametrize("column", ["members", "allow"])
    def test_members_allow_shape_mismatch_is_rejected(self, artifact,
                                                      tmp_path, column):
        name = f"plane_00_{column}.npy"
        short = np.load(artifact / name)[:-1].copy()
        clone = self._rewritten(artifact, tmp_path, name, short)
        with pytest.raises(ArtifactFormatError, match="shape"):
            load_matrix(clone)

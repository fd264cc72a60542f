"""The mmap-able on-disk reachability artifact (schema version 2).

The query daemon must serve has_link / peer-count / density queries
from N worker processes without N copies of the reachability matrix.
That forces a stable on-disk schema: every large structure is a plain
``.npy`` array written in explicit little-endian dtypes and loaded back
with ``np.load(..., mmap_mode="r")``, so all workers share one
page-cache copy; everything irregular (policies, provenance sets,
Table 2 rows) lives in a JSON header small enough to parse per worker.

One artifact is a *directory*::

    header.json               # versioned header — written last (commit)
    plane_<i>_members.npy     # (M,)   <i8  ascending member ASNs
    plane_<i>_allow.npy       # (M, W) <u8  packed ALLOW rows (bit b of
                              #             member j's mask = bit b%64
                              #             of word b//64, little-endian)
    plane_<i>_masks.npy       # (4, W) <u8  covered/passive/active/
                              #             third-party member masks
    plane_<i>_counts.npy      # (M, 3) <i8  prefixes_observed,
                              #             inconsistent (-1 = absent),
                              #             observation_counts (0 = absent)
    plane_<i>_links.npy       # (L, 2) <i8  the IXP's inferred links
    links.npy                 # (L, 2) <i8  de-duplicated union, ascending
    peer_asns.npy             # (P,)   <i8  ASNs with >= 1 link, ascending
    peer_offsets.npy          # (P+1,) <i8  CSR offsets into neighbors
    peer_neighbors.npy        # (E,)   <i8  per-AS sorted peer lists

The ``allow``, ``masks`` and ``counts`` columns are a
:class:`~repro.runtime.reachmatrix.ReachabilityPlane`'s own arrays:
:func:`save_matrix` writes them unchanged and :func:`load_matrix` hands
the loaded (by default mmap'd) arrays to the plane it rebuilds.
``header.json`` carries ``format``/``version``/``endianness``, the
sha256 of every ``.npy`` column (``load_matrix`` refuses a column whose
bytes do not match), plus the per-IXP metadata the columns cannot hold
(merged policies, source/provenance sets, looking-glass query spend)
and, optionally, the scenario's Table 2 rows so the daemon can answer
``table2`` without the pipeline.  The header is written *last* via an
atomic rename: a directory without a parseable header is not an
artifact, so a crashed writer can never be mistaken for a complete one.

:func:`verify_identity` asserts bit-identity between an in-memory
matrix and a loaded artifact — links, per-plane columns, provenance,
peer counts and Table 2 — and is run by the service warm-up for every
registered scenario it loads.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as _np

from repro.runtime.bitset import BitsetIndex
from repro.runtime.reachmatrix import (
    COUNTS_DTYPE,
    PACKED_DTYPE,
    ReachabilityMatrix,
    ReachabilityPlane,
    link_keys_of,
    link_rows,
    packed_words,
)


FORMAT_NAME = "repro-reachability-matrix"
FORMAT_VERSION = 2
ENDIANNESS = "little"

#: Index dtype of every non-mask array (links, members, CSR).
INDEX_DTYPE = "<i8"


class ArtifactFormatError(RuntimeError):
    """The directory is not a loadable reachability artifact."""


# -- saving --------------------------------------------------------------------


def _link_csr(links) -> Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]:
    """(peer_asns, peer_offsets, peer_neighbors) adjacency of a link set.

    Both directions of every undirected link, grouped by source ASN
    (ascending) with each group's peers ascending — so ``has_link`` and
    ``links_of`` are two ``searchsorted`` calls over mmap'd arrays.
    """
    if len(links) == 0:
        empty = _np.zeros(0, dtype=INDEX_DTYPE)
        return empty, _np.zeros(1, dtype=INDEX_DTYPE), empty
    src = _np.concatenate([links[:, 0], links[:, 1]])
    dst = _np.concatenate([links[:, 1], links[:, 0]])
    order = _np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    asns = _np.unique(src)
    offsets = _np.empty(len(asns) + 1, dtype=INDEX_DTYPE)
    offsets[:-1] = _np.searchsorted(src, asns, side="left")
    offsets[-1] = len(src)
    return (asns.astype(INDEX_DTYPE),
            offsets,
            dst.astype(INDEX_DTYPE))


def _save_array(directory: Path, name: str, array,
                digests: Dict[str, str]) -> None:
    """Write one column and record its sha256 for the header."""
    path = directory / name
    _np.save(path, array)
    digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()


def _plane_payload(plane: ReachabilityPlane) -> Dict[str, object]:
    """The JSON-safe metadata of one plane (everything non-columnar)."""
    return {
        "name": plane.ixp_name,
        "num_members": plane.num_members,
        "words": packed_words(plane.num_members),
        "active_queries": plane.active_queries,
        "policies": {str(bit): [mode, sorted(int(v) for v in listed)]
                     for bit, (mode, listed) in sorted(plane.policies.items())},
        "sources": {str(bit): sorted(plane.sources[bit])
                    for bit in sorted(plane.sources)},
        "passive_members": sorted(int(v) for v in plane.passive_members),
        "active_members": sorted(int(v) for v in plane.active_members),
    }


def save_matrix(matrix: ReachabilityMatrix,
                directory: Union[str, Path],
                *,
                scenario: Optional[str] = None,
                size: Optional[str] = None,
                table2: Optional[List[Dict[str, object]]] = None) -> Path:
    """Write *matrix* as a version-2 artifact directory; returns its path.

    ``header.json`` is written last (atomic rename), so a reader that
    finds a parseable header is guaranteed complete column files.
    Existing artifact files in the directory are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    ixp_names = sorted(matrix.planes)
    ixps: List[Dict[str, object]] = []
    digests: Dict[str, str] = {}
    for i, name in enumerate(ixp_names):
        plane = matrix.planes[name]
        members = _np.array(plane.index.universe, dtype=INDEX_DTYPE)
        plane_links = link_rows(matrix.link_keys_of(name))
        for column, array in (("members", members), ("allow", plane.allow),
                              ("masks", plane.masks),
                              ("counts", plane.counts),
                              ("links", plane_links)):
            _save_array(directory, f"plane_{i:02d}_{column}.npy", array,
                        digests)
        ixps.append(_plane_payload(plane))

    all_links = link_rows(matrix.all_link_keys())
    peer_asns, peer_offsets, peer_neighbors = _link_csr(all_links)
    for name, array in (("links", all_links), ("peer_asns", peer_asns),
                        ("peer_offsets", peer_offsets),
                        ("peer_neighbors", peer_neighbors)):
        _save_array(directory, f"{name}.npy", array, digests)

    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "endianness": ENDIANNESS,
        "packed_dtype": PACKED_DTYPE,
        "index_dtype": INDEX_DTYPE,
        "built_by": matrix.built_by,
        "scenario": scenario,
        "size": size,
        "num_links": int(len(all_links)),
        "table2": table2,
        "ixps": ixps,
        "sha256": digests,
    }
    header_path = directory / "header.json"
    tmp = header_path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(header, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, header_path)
    return directory


# -- loading -------------------------------------------------------------------


def _column_loader(directory: Path, header: Dict[str, object], mmap: bool):
    """``load(name)``: one column of the artifact, refused with
    :class:`ArtifactFormatError` when it is missing or its bytes do not
    match the sha256 the header recorded for it."""
    digests = header.get("sha256")
    if not isinstance(digests, dict):
        raise ArtifactFormatError(
            f"{directory} header has no column checksums")

    def load(name: str):
        path = directory / name
        if not path.is_file():
            raise ArtifactFormatError(f"missing artifact column {name}")
        if hashlib.sha256(path.read_bytes()).hexdigest() != digests.get(name):
            raise ArtifactFormatError(
                f"artifact column {name} does not match its sha256 in "
                "header.json")
        return _np.load(path, mmap_mode="r" if mmap else None)

    return load


def _column(load, name: str, dtype: str, shape: Tuple[Optional[int], ...]):
    """Column *name* (via ``load``), refused with
    :class:`ArtifactFormatError` unless it has exactly *dtype* and
    *shape* (``None``: any length on that axis)."""
    array = load(name)
    if array.dtype != _np.dtype(dtype):
        raise ArtifactFormatError(
            f"artifact column {name} has dtype {array.dtype}, "
            f"expected {dtype}")
    if array.ndim != len(shape) or any(
            want is not None and got != want
            for got, want in zip(array.shape, shape)):
        expected = tuple("*" if want is None else want for want in shape)
        raise ArtifactFormatError(
            f"artifact column {name} has shape {array.shape}, "
            f"expected {expected}")
    return array


def _load_plane(load, i: int,
                payload: Dict[str, object]) -> ReachabilityPlane:
    size = int(payload["num_members"])
    words = packed_words(size)
    prefix = f"plane_{i:02d}_"
    members = _column(load, prefix + "members.npy", INDEX_DTYPE, (size,))
    universe = tuple(members.tolist())
    index = BitsetIndex(universe)
    if index.universe != universe:
        raise ArtifactFormatError(
            f"plane {payload['name']!r} members are not sorted-unique")
    return ReachabilityPlane(
        ixp_name=str(payload["name"]),
        index=index,
        allow=_column(load, prefix + "allow.npy", PACKED_DTYPE,
                      (size, words)),
        masks=_column(load, prefix + "masks.npy", PACKED_DTYPE, (4, words)),
        counts=_column(load, prefix + "counts.npy", COUNTS_DTYPE,
                       (size, 3)),
        policies={int(bit): (str(mode), frozenset(listed))
                  for bit, (mode, listed)
                  in dict(payload["policies"]).items()},
        sources={int(bit): frozenset(values)
                 for bit, values in dict(payload["sources"]).items()},
        passive_members=frozenset(int(v)
                                  for v in payload["passive_members"]),
        active_members=frozenset(int(v)
                                 for v in payload["active_members"]),
        active_queries=int(payload["active_queries"]),
    )


class ArtifactHandle:
    """One loaded artifact: the matrix plus mmap'd query indexes.

    ``has_link``/``links_of``/``peer_counts`` run off the CSR columns,
    kept as plain ``ndarray`` views of the mmap (the same pages, so N
    daemon workers share one page-cache copy of every column) and read
    with array methods plus one ``tolist()`` per answer, never element
    by element; the density view is derived lazily from the matrix and
    memoised per process (it is a few hundred floats per IXP).
    """

    def __init__(self, directory: Path, header: Dict[str, object],
                 matrix: ReachabilityMatrix, all_links, peer_asns,
                 peer_offsets, peer_neighbors) -> None:
        self.directory = directory
        self.header = header
        self.matrix = matrix
        self.all_links = all_links
        self.peer_asns = peer_asns.view(_np.ndarray)
        self.peer_offsets = peer_offsets.view(_np.ndarray)
        self.peer_neighbors = peer_neighbors.view(_np.ndarray)
        self.scenario = header.get("scenario")
        self.size = header.get("size")
        self.table2 = header.get("table2")
        self._densities: Optional[Dict[str, Dict[int, float]]] = None

    # -- queries -------------------------------------------------------------

    @property
    def num_links(self) -> int:
        return int(len(self.all_links))

    def _peer_slice(self, asn: int):
        asns = self.peer_asns
        i = asns.searchsorted(asn)
        if i == len(asns) or asns[i] != asn:
            return None
        start, stop = self.peer_offsets[i:i + 2].tolist()
        return self.peer_neighbors[start:stop]

    def has_link(self, a: int, b: int) -> bool:
        """Whether the ordered/unordered pair (a, b) is an inferred link."""
        peers = self._peer_slice(int(a))
        if peers is None:
            return False
        b = int(b)
        j = peers.searchsorted(b)
        return bool(j < len(peers) and peers[j] == b)

    def links_of(self, asn: int) -> List[int]:
        """The sorted MLP peers of *asn* (empty when unknown)."""
        peers = self._peer_slice(int(asn))
        return [] if peers is None else peers.tolist()

    def peer_counts(self) -> Dict[int, int]:
        """Per-AS distinct peer counts, ascending ASN order."""
        return dict(zip(self.peer_asns.tolist(),
                        _np.diff(self.peer_offsets).tolist()))

    def member_densities(self) -> Dict[str, Dict[int, float]]:
        """Per-IXP per-member peering densities (figure 12's raw data)."""
        if self._densities is None:
            from repro.analysis.density import member_densities
            self._densities = {
                name: member_densities(self.matrix.links_of(name),
                                       plane.index.universe)
                for name, plane in sorted(self.matrix.planes.items())}
        return self._densities

    def summary(self) -> Dict[str, object]:
        """Headline numbers for listings and smoke checks."""
        return {
            "scenario": self.scenario,
            "size": self.size,
            "ixps": len(self.matrix.planes),
            "links": self.num_links,
            "peer_ases": int(len(self.peer_asns)),
            "built_by": self.matrix.built_by,
            "has_table2": self.table2 is not None,
        }

    def __repr__(self) -> str:
        return (f"ArtifactHandle({self.scenario or self.directory.name}: "
                f"{self.num_links} links, {len(self.matrix.planes)} planes)")


def load_matrix(directory: Union[str, Path],
                mmap: bool = True) -> ArtifactHandle:
    """Load an artifact directory (mmap'd by default) into a handle.

    Raises :class:`ArtifactFormatError` on a missing/incompatible
    header, a column whose bytes do not match its recorded sha256, or
    malformed columns — every column's dtype and shape are checked
    against the schema before it is read, and the error names the
    column — so a truncated or corrupted artifact is a clean failure
    instead of silently wrong answers.  A plane's ``allow``, ``masks``
    and ``counts`` stay the loaded arrays; the member and link columns
    are converted to Python values once (``tolist``), never element by
    element.
    """
    directory = Path(directory)
    header_path = directory / "header.json"
    if not header_path.is_file():
        raise ArtifactFormatError(f"{directory} has no header.json")
    try:
        header = json.loads(header_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactFormatError(
            f"unreadable artifact header {header_path}: {error}") from error
    if header.get("format") != FORMAT_NAME:
        raise ArtifactFormatError(
            f"{directory} is not a {FORMAT_NAME} artifact "
            f"(format={header.get('format')!r})")
    if header.get("version") != FORMAT_VERSION:
        raise ArtifactFormatError(
            f"unsupported artifact version {header.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})")
    if header.get("endianness") != ENDIANNESS:
        raise ArtifactFormatError(
            f"unsupported endianness {header.get('endianness')!r}")

    load = _column_loader(directory, header, mmap)
    planes: Dict[str, ReachabilityPlane] = {}
    links_by_ixp: Dict[str, Tuple[Tuple[int, int], ...]] = {}
    keys_by_ixp = {}
    for i, payload in enumerate(header["ixps"]):
        plane = _load_plane(load, i, payload)
        planes[plane.ixp_name] = plane
        name = f"plane_{i:02d}_links.npy"
        plane_links = _column(load, name, INDEX_DTYPE, (None, 2))
        try:
            keys_by_ixp[plane.ixp_name] = link_keys_of(plane_links)
        except ValueError as error:
            raise ArtifactFormatError(
                f"artifact column {name}: {error}") from error
        links_by_ixp[plane.ixp_name] = tuple(map(tuple,
                                                 plane_links.tolist()))
    matrix = ReachabilityMatrix(planes, links_by_ixp=links_by_ixp,
                                keys_by_ixp=keys_by_ixp,
                                built_by=str(header.get("built_by",
                                                        "artifact")))
    peer_asns = _column(load, "peer_asns.npy", INDEX_DTYPE, (None,))
    return ArtifactHandle(
        directory=directory,
        header=header,
        matrix=matrix,
        all_links=_column(load, "links.npy", INDEX_DTYPE, (None, 2)),
        peer_asns=peer_asns,
        peer_offsets=_column(load, "peer_offsets.npy", INDEX_DTYPE,
                             (len(peer_asns) + 1,)),
        peer_neighbors=_column(load, "peer_neighbors.npy", INDEX_DTYPE,
                               (None,)),
    )


# -- verification --------------------------------------------------------------


def verify_identity(matrix: ReachabilityMatrix, handle: ArtifactHandle,
                    table2: Optional[List[Dict[str, object]]] = None
                    ) -> List[str]:
    """Bit-identity check: built matrix vs loaded artifact.

    Returns a list of human-readable mismatch descriptions (empty ==
    identical).  Covers the acceptance surface: per-plane columns (ALLOW
    rows, provenance masks, per-member counts), policies, provenance
    sets, per-IXP and global link sets, peer counts (both the matrix
    view and the CSR view) and — when the expected rows are supplied —
    Table 2.
    """
    problems: List[str] = []
    loaded = handle.matrix
    if sorted(matrix.planes) != sorted(loaded.planes):
        return [f"IXP sets differ: {sorted(matrix.planes)} vs "
                f"{sorted(loaded.planes)}"]
    for name in sorted(matrix.planes):
        mine, theirs = matrix.planes[name], loaded.planes[name]
        problems.extend(
            f"plane {name}: {column} differs"
            for column in ("allow", "masks", "counts")
            if not _np.array_equal(getattr(mine, column),
                                   getattr(theirs, column)))
        checks = [
            ("universe", mine.index.universe, theirs.index.universe),
            ("policies", mine.policies, theirs.policies),
            ("sources", mine.sources, theirs.sources),
            ("passive_members", mine.passive_members,
             theirs.passive_members),
            ("active_members", mine.active_members, theirs.active_members),
            ("active_queries", mine.active_queries, theirs.active_queries),
            ("links", mine.links(), theirs.links()),
        ]
        problems.extend(f"plane {name}: {field} differs"
                        for field, a, b in checks if a != b)
    if matrix.links_by_ixp() != loaded.links_by_ixp():
        problems.append("links_by_ixp differs")
    if matrix.all_links() != loaded.all_links():
        problems.append("all_links differs")
    if not _np.array_equal(handle.all_links,
                           link_rows(matrix.all_link_keys())):
        problems.append("links.npy differs from all_links")
    if matrix.multi_ixp_links() != loaded.multi_ixp_links():
        problems.append("multi_ixp_links differs")
    if matrix.link_ixps() != loaded.link_ixps():
        problems.append("link_ixps (provenance) differs")
    if matrix.peer_counts() != loaded.peer_counts():
        problems.append("peer_counts differs")
    if matrix.peer_counts() != handle.peer_counts():
        problems.append("CSR peer_counts differs")
    if table2 is not None and handle.table2 != table2:
        problems.append("table2 differs")
    return problems

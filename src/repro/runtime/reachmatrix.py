"""The vectorized reachability plane: per-IXP ALLOW matrices.

The paper's section-4 outcome — one reconstructed export policy N_a per
route-server member — is naturally a square boolean matrix per IXP:
``allow[i][j]`` says whether member *i* lets member *j* receive its
routes.  :class:`ReachabilityPlane` stores exactly that, as integer
bitmask rows over a :class:`~repro.runtime.bitset.BitsetIndex` (bit
position == rank of the member ASN), together with the provenance of
each row (passive / active / third-party), the exact merged policy
behind it, per-member observation counts and the looking-glass query
spend.  :class:`ReachabilityMatrix` bundles one plane per IXP and
memoises every derived view the section-5 analyses consume (global link
set, per-IXP link sets, multi-IXP overlap, link provenance, per-member
peer counts), so the whole figure suite runs off one artifact.  The
inference engine builds it from its planes and hands it out as
``MLPInferenceResult.matrix``.

Reciprocal-ALLOW link inference is ``M & M.T``: the rows are unpacked
into a boolean matrix, AND-ed with its transpose and the strict upper
triangle is read out in one pass (:func:`reciprocal_cells`).  A plane
keeps its links in two forms built from that pass: ascending uint64
keys in the one link-key format of :func:`~repro.runtime.fragments.
pack_links`, and pair tuples of the universe's own int objects.  The
matrix's global views (``all_links``, ``multi_ixp_links``,
``link_ixps``, ``peer_counts``) come from one sort of the concatenated
per-IXP keys.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as _np

from repro.runtime.bitset import BitsetIndex
from repro.runtime.fragments import MAX_KEYED, pack_links, unpack_links

#: An inferred MLP link: an ordered (lower ASN, higher ASN) pair.
Link = Tuple[int, int]

#: The on-wire dtype of packed ALLOW planes: 64-bit little-endian words,
#: word ``w`` holding member bits ``64*w .. 64*w+63`` (bit ``b`` of the
#: mask is bit ``b % 64`` of word ``b // 64``).  The explicit ``<``
#: keeps arrays byte-identical across hosts, which is what lets the
#: service artifact be mmap'd by any worker that can read the file.
PACKED_DTYPE = "<u8"

#: The export-policy mode every mask/openness computation branches on
#: (the other mode, "none-except", is handled by the else arms; the
#: canonical mode definitions live in :mod:`repro.core.reachability`).
MODE_ALL_EXCEPT = "all-except"


def allow_mask_for(mode: str, listed: Iterable[int], index: BitsetIndex,
                   member_asn: Optional[int] = None) -> int:
    """N_a as a bitmask over *index* for a merged (mode, listed) policy.

    Bit *i* is set iff the policy allows ``index.universe[i]``: listed
    values unknown to the index are ignored, and *member_asn*'s own bit
    is always cleared.
    """
    listed_mask = index.mask_of(listed)
    if mode == MODE_ALL_EXCEPT:
        mask = index.full_mask & ~listed_mask
    else:
        mask = listed_mask
    if member_asn is not None:
        own_bit = index.bit_of.get(member_asn)
        if own_bit is not None:
            mask &= ~(1 << own_bit)
    return mask


def packed_words(size: int) -> int:
    """Words per packed row for a *size*-member universe (>= 1)."""
    return max(1, (size + 63) // 64)


def pack_mask(mask: int, size: int):
    """One integer bitmask as a ``(words,)`` :data:`PACKED_DTYPE` row."""
    nbytes = packed_words(size) * 8
    return _np.frombuffer(mask.to_bytes(nbytes, "little"),
                          dtype=PACKED_DTYPE).copy()


def unpack_mask(row) -> int:
    """The integer bitmask of one packed row (inverse of :func:`pack_mask`)."""
    return int.from_bytes(_np.ascontiguousarray(row).tobytes(), "little")


def pack_rows(rows: Mapping[int, int], size: int):
    """Integer bitmask rows as a packed ``(size, words)`` uint64 plane.

    Uncovered rows (bits without an entry) pack as all-zero words, i.e.
    "allows nobody".
    """
    words = packed_words(size)
    packed = _np.zeros((size, words), dtype=PACKED_DTYPE)
    nbytes = words * 8
    for bit, mask in rows.items():
        if mask:
            packed[bit] = _np.frombuffer(
                mask.to_bytes(nbytes, "little"), dtype=PACKED_DTYPE)
    return packed


def packed_to_bool_matrix(packed, size: int):
    """Unpack a ``(size, words)`` uint64 plane into a bool matrix.

    One vectorized ``unpackbits`` over the whole plane — no per-row
    Python-integer traffic, which is what makes this usable directly on
    an mmap'd artifact plane.
    """
    if size == 0:
        return _np.zeros((0, 0), dtype=bool)
    as_bytes = _np.ascontiguousarray(packed).view(_np.uint8)
    return _np.unpackbits(as_bytes, axis=1, bitorder="little",
                          count=size).view(bool)


def reciprocal_cells(packed, size: int, require_reciprocity: bool = True):
    """The ``(rows, cols)`` bit-index arrays of the reciprocal-ALLOW
    pairs of a packed ``(size, words)`` uint64 ALLOW plane, ``rows <
    cols``, in ascending row-major order.

    The one link kernel in ``src/``: unpack once, ``M & M.T`` (or
    ``M | M.T``), and read the strict upper triangle with one
    ``np.triu``/``np.nonzero`` pass.  Over a sorted universe,
    row-major order *is* ascending sorted-pair order.
    """
    matrix = packed_to_bool_matrix(packed, size)
    if require_reciprocity:
        mutual = matrix & matrix.T
    else:
        mutual = matrix | matrix.T
    return _np.nonzero(_np.triu(mutual, 1))


def _pairs_at(universe: Tuple[int, ...], rows, cols) -> Tuple[Link, ...]:
    """``(universe[i], universe[j])`` for the index arrays *rows* and
    *cols*, built from the universe's own int objects (an object-array
    gather, no fresh Python ints)."""
    values = _np.array(universe, dtype=object)
    return tuple(zip(values[rows].tolist(), values[cols].tolist()))


def _keyable_universe(universe: Tuple[int, ...]):
    """The ascending *universe* as int64, or ``ValueError`` when an ASN
    falls outside ``[0, MAX_KEYED]`` (a link key would wrap)."""
    if universe and (universe[0] < 0 or universe[-1] > MAX_KEYED):
        raise ValueError(
            f"member ASNs {universe[0]}..{universe[-1]} fall outside the "
            f"link-key range [0, {MAX_KEYED}]")
    return _np.array(universe, dtype=_np.int64)


def link_keys_of(links):
    """uint64 link keys (:func:`~repro.runtime.fragments.pack_links`) of
    ``(lo, hi)`` pairs: an ``(L, 2)`` array or a sequence of pairs, in
    their order.  A value outside ``[0, MAX_KEYED]`` raises
    ``ValueError`` (or ``OverflowError`` beyond int64), never wraps."""
    array = _np.asarray(links, dtype=_np.int64).reshape(-1, 2)
    if len(array) and (array.min() < 0 or array.max() > MAX_KEYED):
        raise ValueError(
            f"link ASNs outside the link-key range [0, {MAX_KEYED}]")
    return pack_links(array[:, 0], array[:, 1])


def link_rows(keys):
    """The ``(L, 2)`` ``<i8`` ``(lo, hi)`` rows of link *keys* (the
    artifact's link-column layout)."""
    return _np.stack(unpack_links(keys), axis=1).astype("<i8", copy=False)


def reciprocal_links(rows: Mapping[int, int], universe: Tuple[int, ...],
                     require_reciprocity: bool = True) -> Tuple[Link, ...]:
    """The sorted reciprocal-ALLOW pairs of the given ALLOW rows (the
    :func:`reciprocal_cells` kernel over the packed rows).

    *rows* maps bit position -> outgoing mask ("bit *i* allows bit
    *j*"); a missing row allows nobody.  ``core.reachability.
    infer_links`` runs it; planes run the same kernel in
    :meth:`ReachabilityPlane.links`.
    """
    size = len(universe)
    cells = reciprocal_cells(pack_rows(rows, size), size,
                             require_reciprocity)
    return _pairs_at(universe, *cells)


class PackedRows(MappingABC):
    """A read-only ``Mapping[bit, int-mask]`` view over a packed plane.

    The authoritative data is the ``(members, words)`` uint64 array
    (usually an mmap of the service artifact); Python integers are
    materialised lazily per accessed row and memoised, so planes loaded
    for packed-kernel queries never pay the integer conversion unless
    object-level code actually asks for a row.  Equality compares like
    a dict, so loaded planes compare clean against built ones.
    """

    __slots__ = ("_packed", "_bits", "_bitset", "_cache")

    def __init__(self, packed, bits: Iterable[int]) -> None:
        self._packed = packed
        self._bits = tuple(bits)
        self._bitset = frozenset(self._bits)
        self._cache: Dict[int, int] = {}

    def __getitem__(self, bit: int) -> int:
        if bit not in self._bitset:
            raise KeyError(bit)
        value = self._cache.get(bit)
        if value is None:
            value = unpack_mask(self._packed[bit])
            self._cache[bit] = value
        return value

    def __iter__(self):
        return iter(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __contains__(self, bit) -> bool:
        return bit in self._bitset

    def __eq__(self, other) -> bool:
        if isinstance(other, (dict, MappingABC)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __reduce__(self):
        # Pickle as a plain in-memory array (an mmap does not travel).
        return (PackedRows, (_np.asarray(self._packed), self._bits))

    def __repr__(self) -> str:
        return f"PackedRows({len(self._bits)} rows)"


@dataclass
class ReachabilityPlane:
    """One IXP's reachability data plane.

    Row *i* of ``allow_rows`` is N_a of ``index.universe[i]`` as a
    bitmask; only covered members (``covered_mask``) have rows.  The
    exact merged policy behind every row is kept in ``policies`` so the
    object-level :class:`~repro.core.reachability.MemberReachability`
    view can be reconstructed bit-identically, and analyses that need
    the literal EXCLUDE lists (repellers) or populations outside the
    universe (openness against arbitrary member lists) stay exact.
    """

    ixp_name: str
    index: BitsetIndex
    #: covered member bit -> outgoing ALLOW bitmask.  Built planes use a
    #: plain dict; planes loaded from the service artifact install a
    #: lazy :class:`PackedRows` view over the mmap'd uint64 plane (the
    #: two compare equal row-for-row).
    allow_rows: Dict[int, int] = field(default_factory=dict)
    #: covered member bit -> the merged (mode, listed) policy.
    policies: Dict[int, Tuple[str, FrozenSet[int]]] = field(default_factory=dict)
    #: covered member bit -> observation provenance ("passive"/...).
    sources: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: covered member bit -> number of distinct prefixes observed.
    prefixes_observed: Dict[int, int] = field(default_factory=dict)
    #: covered member bit -> number of inconsistently announced prefixes.
    inconsistent: Dict[int, int] = field(default_factory=dict)
    #: bits of members with a reconstructed reachability.
    covered_mask: int = 0
    #: provenance planes over member bits (may undercount members whose
    #: observations fell outside the final universe; the exact sets are
    #: in passive_members / active_members).
    passive_mask: int = 0
    active_mask: int = 0
    third_party_mask: int = 0
    #: the exact provenance populations (can contain non-universe ASNs).
    passive_members: FrozenSet[int] = frozenset()
    active_members: FrozenSet[int] = frozenset()
    #: looking-glass queries spent collecting this plane.
    active_queries: int = 0
    #: member bit -> number of raw (prefix, policy) observations.
    observation_counts: Dict[int, int] = field(default_factory=dict)
    #: require_reciprocity -> (sorted uint64 link keys, pair tuple),
    #: built together on first use of either.
    _links: Dict[bool, Tuple[object, Tuple[Link, ...]]] = field(
        default_factory=dict, repr=False, compare=False)
    #: lazily packed ``(members, words)`` uint64 ALLOW plane (the hot
    #: representation behind :meth:`links`/:meth:`allows`; mmap'd for
    #: artifact-loaded planes, packed once from ``allow_rows`` for
    #: built ones).  Treat the plane as frozen once packed.
    _packed: Optional[object] = field(
        default=None, repr=False, compare=False)

    # -- geometry ------------------------------------------------------------

    @property
    def num_members(self) -> int:
        return len(self.index)

    # -- packed representation -----------------------------------------------

    def packed(self):
        """The ``(members, words)`` :data:`PACKED_DTYPE` ALLOW plane.

        Packed once from ``allow_rows`` and memoised; artifact-loaded
        planes carry their mmap'd plane from construction and never
        touch Python integers here.  The plane must not be mutated
        after the first call.
        """
        if self._packed is None:
            self._packed = pack_rows(self.allow_rows, len(self.index))
        return self._packed

    # -- link inference ------------------------------------------------------

    def link_keys(self, require_reciprocity: bool = True):
        """Reciprocal-ALLOW links of this plane as ascending uint64 keys
        (:func:`~repro.runtime.fragments.pack_links`), memoised per
        flag; ``ValueError`` if a member ASN is not keyable."""
        return self._reciprocal(require_reciprocity)[0]

    def links(self, require_reciprocity: bool = True) -> Tuple[Link, ...]:
        """Reciprocal-ALLOW links of this plane as ascending pairs of the
        universe's own int objects (memoised per flag, built in the same
        pass as :meth:`link_keys`)."""
        return self._reciprocal(require_reciprocity)[1]

    def _reciprocal(self, require_reciprocity: bool):
        cached = self._links.get(require_reciprocity)
        if cached is None:
            universe = self.index.universe
            asns = _keyable_universe(universe)
            rows, cols = reciprocal_cells(self.packed(), len(universe),
                                          require_reciprocity)
            cached = (pack_links(asns[rows], asns[cols]),
                      _pairs_at(universe, rows, cols))
            self._links[require_reciprocity] = cached
        return cached

    # -- per-member views ----------------------------------------------------

    def openness(self, member_asn: int,
                 members: Optional[Iterable[int]] = None) -> float:
        """Fraction of other members this member allows (figure 11).

        With an explicit *members* population the exact merged policy is
        consulted (so members outside the plane universe are handled
        like ``MemberReachability.openness``); the default population is
        the plane universe, answered from the row popcount.
        """
        bit = self.index.bit_of.get(member_asn)
        if bit is None or bit not in self.policies:
            return 0.0
        if members is None:
            others = self.num_members - 1
            if others <= 0:
                return 0.0
            row = self.allow_rows.get(bit, 0) & ~(1 << bit)
            return bin(row).count("1") / others
        mode, listed = self.policies[bit]
        others = [m for m in members if m != member_asn]
        if not others:
            return 0.0
        if mode == MODE_ALL_EXCEPT:
            allowed = sum(1 for m in others if m not in listed)
        else:
            allowed = sum(1 for m in others if m in listed)
        return allowed / len(others)


class ReachabilityMatrix:
    """The scenario-wide reachability artifact: one plane per IXP.

    Every accessor the analyses consume is memoised, so Table 2, the
    visibility/degree/density figures and the hybrid/repeller reports
    all read from one shared computation instead of re-deriving the
    global link set per figure.

    The per-IXP links come twice, as pair tuples and as uint64 keys
    (:func:`~repro.runtime.fragments.pack_links`, same order).  The
    global views derive from one sort of the concatenated keys and hand
    out the pair objects the per-IXP tuples already hold.
    """

    def __init__(self, planes: Dict[str, ReachabilityPlane],
                 links_by_ixp: Dict[str, Tuple[Link, ...]],
                 keys_by_ixp: Mapping[str, object],
                 built_by: str = "bitset") -> None:
        #: ixp name -> plane.
        self.planes = dict(planes)
        #: how the planes were produced (provenance only): "bitset" for
        #: the inference engine's planes, or what a loaded artifact
        #: recorded.
        self.built_by = built_by
        #: per-IXP link tuples — the result's links.
        self._links_by_ixp: Dict[str, Tuple[Link, ...]] = dict(links_by_ixp)
        #: per-IXP uint64 link keys, row for row with the tuples.
        self._keys_by_ixp = {name: _np.asarray(keys, dtype=_np.uint64)
                             for name, keys in keys_by_ixp.items()}
        if set(self._keys_by_ixp) != set(self._links_by_ixp) or any(
                len(self._keys_by_ixp[name]) != len(links)
                for name, links in self._links_by_ixp.items()):
            raise ValueError("keys_by_ixp does not match links_by_ixp")
        self._derived: Dict[str, object] = {}

    # -- shared link views ---------------------------------------------------

    def links_by_ixp(self) -> Dict[str, Tuple[Link, ...]]:
        """Per-IXP sorted link tuples (the inference result's links)."""
        return dict(self._links_by_ixp)

    def links_of(self, ixp_name: str) -> Tuple[Link, ...]:
        """One IXP's sorted link tuple."""
        return self._links_by_ixp[ixp_name]

    def link_keys_of(self, ixp_name: str):
        """One IXP's links as uint64 keys (the order of :meth:`links_of`)."""
        return self._keys_by_ixp[ixp_name]

    def _merged(self):
        """``(names, keys, order, starts)``: the per-IXP keys
        concatenated in IXP-name order, stably sorted (``order`` maps a
        sorted position to its concatenated one, so equal keys keep
        IXP-name order), and the first sorted position of every
        distinct key.  Not memoised: each view keeps only its own
        result, so a matrix holds no per-link scratch arrays."""
        names = sorted(self._keys_by_ixp)
        keys = _np.concatenate(
            [_np.zeros(0, dtype=_np.uint64)]
            + [self._keys_by_ixp[name] for name in names])
        order = _np.argsort(keys, kind="stable")
        keys = keys[order]
        first = _np.ones(len(keys), dtype=bool)
        _np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return names, keys, order, _np.flatnonzero(first)

    def all_link_keys(self):
        """The de-duplicated union of the per-IXP link keys, ascending:
        row for row the keys of :meth:`all_links` (memoised)."""
        cached = self._derived.get("all_link_keys")
        if cached is None:
            _, keys, _, starts = self._merged()
            cached = self._derived["all_link_keys"] = keys[starts]
        return cached

    def all_links(self) -> Tuple[Link, ...]:
        """De-duplicated union of the per-IXP links, ascending (memoised):
        the pair objects of the per-IXP tuples, first IXP by name wins."""
        cached = self._derived.get("all_links")
        if cached is None:
            names, keys, order, starts = self._merged()
            pairs = _np.fromiter(
                chain.from_iterable(self._links_by_ixp[name]
                                    for name in names),
                dtype=object, count=len(keys))
            cached = tuple(pairs[order[starts]].tolist())
            self._derived["all_links"] = cached
        return cached

    def multi_ixp_links(self) -> Tuple[Link, ...]:
        """Links inferred at more than one IXP, ascending (memoised)."""
        cached = self._derived.get("multi_ixp_links")
        if cached is None:
            _, keys, _, starts = self._merged()
            counts = _np.diff(starts, append=len(keys))
            links = self.all_links()
            cached = tuple(map(links.__getitem__,
                               _np.flatnonzero(counts > 1).tolist()))
            self._derived["multi_ixp_links"] = cached
        return cached

    def link_ixps(self) -> Dict[Link, Tuple[str, ...]]:
        """Link -> the sorted IXP names it was inferred at, keyed in
        :meth:`all_links` order (memoised) — the link-provenance view
        the hybrid analysis consumes."""
        cached = self._derived.get("link_ixps")
        if cached is None:
            names, keys, order, starts = self._merged()
            owner = _np.repeat(
                _np.arange(len(names)),
                [len(self._keys_by_ixp[name]) for name in names])[order]
            # Single-IXP links (most of them) share one tuple per IXP.
            singles = [(name,) for name in names]
            provenance = [singles[i] for i in owner[starts].tolist()]
            counts = _np.diff(starts, append=len(keys))
            for link in _np.flatnonzero(counts > 1).tolist():
                start = int(starts[link])
                provenance[link] = tuple(
                    names[i] for i in
                    owner[start:start + int(counts[link])].tolist())
            cached = dict(zip(self.all_links(), provenance))
            self._derived["link_ixps"] = cached
        return cached

    def peer_counts(self) -> Dict[int, int]:
        """Per-AS distinct MLP peer counts (figure 6's x-axis), keyed in
        ascending ASN order (memoised)."""
        cached = self._derived.get("peer_counts")
        if cached is None:
            lo, hi = unpack_links(self.all_link_keys())
            asns, counts = _np.unique(_np.concatenate([lo, hi]),
                                      return_counts=True)
            cached = dict(zip(asns.tolist(), counts.tolist()))
            self._derived["peer_counts"] = cached
        return cached

    # -- aggregate introspection ---------------------------------------------

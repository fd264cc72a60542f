"""The vectorized reachability plane: per-IXP ALLOW matrices.

The paper's section-4 outcome — one reconstructed export policy N_a per
route-server member — is naturally a square boolean matrix per IXP:
``allow[i][j]`` says whether member *i* lets member *j* receive its
routes.  :class:`ReachabilityPlane` stores exactly the service
artifact's per-plane columns over a
:class:`~repro.runtime.bitset.BitsetIndex` (bit position == rank of the
member ASN): the packed ALLOW rows, the covered / passive / active /
third-party member masks and the per-member counts, next to the merged
policy and provenance of every covered member and the looking-glass
query spend.  The engine builds the columns once, the artifact writes
them as they are and loads them back as mmap'd arrays.
:class:`ReachabilityMatrix` bundles one plane per IXP and memoises every
derived view the section-5 analyses consume (global link set, per-IXP
link sets, multi-IXP overlap, link provenance, per-member peer counts),
so the whole figure suite runs off one artifact.  The inference engine
builds it from its planes and hands it out as
``MLPInferenceResult.matrix``.

Every N_a rule is :func:`allow_plane`: one boolean row per distinct
``(mode, listed)`` policy, the diagonal cleared, packed with
``np.packbits``.  Reciprocal-ALLOW link inference is ``M & M.T``: the
packed rows are unpacked into a boolean matrix, AND-ed with its
transpose and the strict upper triangle is read out in one pass
(:func:`reciprocal_cells`).  A plane keeps its links in two forms built
from that pass: ascending uint64 keys in the one link-key format of
:func:`~repro.runtime.fragments.pack_links`, and pair tuples of the
universe's own int objects.  The matrix's global views (``all_links``,
``multi_ixp_links``, ``link_ixps``, ``peer_counts``) come from one sort
of the concatenated per-IXP keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as _np

from repro.bgp.policy import MODE_ALL_EXCEPT
from repro.runtime.bitset import BitsetIndex
from repro.runtime.fragments import MAX_KEYED, pack_links, unpack_links

#: An inferred MLP link: an ordered (lower ASN, higher ASN) pair.
Link = Tuple[int, int]

#: The dtype of packed member bits (ALLOW rows and member masks):
#: 64-bit little-endian words, word ``w`` holding member bits
#: ``64*w .. 64*w+63`` (bit ``b`` is bit ``b % 64`` of word ``b //
#: 64``).  The explicit ``<`` keeps arrays byte-identical across hosts,
#: which is what lets the service artifact be mmap'd by any worker that
#: can read the file.
PACKED_DTYPE = "<u8"

#: The dtype of a plane's per-member counts.
COUNTS_DTYPE = "<i8"


def packed_words(size: int) -> int:
    """Words per packed row for a *size*-member universe (>= 1)."""
    return max(1, (size + 63) // 64)


def pack_bits(bits):
    """Boolean rows ``(..., M)`` as packed ``(..., W)``
    :data:`PACKED_DTYPE` words (member bit ``b`` -> bit ``b % 64`` of
    word ``b // 64``; the padding bits are zero)."""
    bits = _np.asarray(bits, dtype=bool)
    size = bits.shape[-1]
    packed = _np.zeros(bits.shape[:-1] + (packed_words(size) * 8,),
                       dtype=_np.uint8)
    packed[..., :(size + 7) // 8] = _np.packbits(bits, axis=-1,
                                                 bitorder="little")
    return packed.view(PACKED_DTYPE)


def unpack_plane(packed, size: int):
    """The boolean ``(..., size)`` rows of packed ``(..., W)`` words
    (inverse of :func:`pack_bits`): one vectorized ``unpackbits``, so it
    runs directly on an mmap'd artifact column."""
    as_bytes = _np.ascontiguousarray(packed).view(_np.uint8)
    return _np.unpackbits(as_bytes, axis=-1, bitorder="little",
                          count=size).view(bool)


def member_bits(index: BitsetIndex, values: Iterable[int]):
    """The boolean row over *index* of the given member values (values
    unknown to the index are ignored)."""
    bit_of = index.bit_of
    row = _np.zeros(len(index), dtype=bool)
    row[[bit_of[value] for value in values if value in bit_of]] = True
    return row


def allow_plane(policies: Mapping[int, Tuple[str, FrozenSet[int]]],
                index: BitsetIndex):
    """N_a of every covered member as the packed ``(M, W)`` ALLOW plane.

    *policies* maps a member bit to its merged ``(mode, listed)``
    policy: ``all-except`` allows every member but the listed ones,
    ``none-except`` only the listed ones (listed values unknown to the
    index are ignored).  One boolean row is built per distinct policy;
    a member never allows itself and an uncovered row allows nobody.
    """
    by_policy: Dict[Tuple[str, FrozenSet[int]], list] = {}
    for bit, policy in policies.items():
        by_policy.setdefault(policy, []).append(bit)
    allow = _np.zeros((len(index), len(index)), dtype=bool)
    for (mode, listed), bits in by_policy.items():
        row = member_bits(index, listed)
        allow[bits] = ~row if mode == MODE_ALL_EXCEPT else row
    _np.fill_diagonal(allow, False)
    return pack_bits(allow)


def reciprocal_cells(allow, size: int, require_reciprocity: bool = True):
    """The ``(rows, cols)`` bit-index arrays of the reciprocal-ALLOW
    pairs of a packed ``(size, words)`` ALLOW plane, ``rows < cols``, in
    ascending row-major order.

    The one link kernel in ``src/``: unpack once, ``M & M.T`` (or
    ``M | M.T``), and read the strict upper triangle with one
    ``np.triu``/``np.nonzero`` pass.  Over a sorted universe,
    row-major order *is* ascending sorted-pair order.
    """
    matrix = unpack_plane(allow, size)
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


def reciprocal_links(allow, universe: Tuple[int, ...],
                     require_reciprocity: bool = True) -> Tuple[Link, ...]:
    """The sorted reciprocal-ALLOW pairs of a packed ALLOW plane over
    *universe* (the :func:`reciprocal_cells` kernel).
    ``core.reachability.infer_links`` runs it; planes run the same
    kernel in :meth:`ReachabilityPlane.links`."""
    return _pairs_at(universe, *reciprocal_cells(allow, len(universe),
                                                 require_reciprocity))


@dataclass(eq=False)
class ReachabilityPlane:
    """One IXP's reachability data plane: the artifact's three columns
    plus the JSON metadata they cannot hold.

    Row *i* of ``allow`` is N_a of ``index.universe[i]`` as packed bits;
    only covered members have a nonzero row.  The exact merged policy
    behind every row is kept in ``policies`` so the object-level
    :class:`~repro.core.reachability.MemberReachability` view can be
    reconstructed bit-identically, and analyses that need the literal
    EXCLUDE lists (repellers) or populations outside the universe
    (openness against arbitrary member lists) stay exact.  Planes
    compare by identity; the columns of a built plane are read-only.
    """

    ixp_name: str
    index: BitsetIndex
    #: ``(M, W)`` :data:`PACKED_DTYPE`: row *i* is member *i*'s ALLOW
    #: bits (all zero for an uncovered member).
    allow: _np.ndarray
    #: ``(4, W)`` :data:`PACKED_DTYPE` member masks: covered, passive,
    #: active and third-party provenance (members outside the universe
    #: are not in them; the exact sets are ``passive_members`` and
    #: ``active_members``).
    masks: _np.ndarray
    #: ``(M, 3)`` :data:`COUNTS_DTYPE` per member: distinct prefixes
    #: observed and inconsistently announced prefixes (both -1 for an
    #: uncovered member), and raw (prefix, policy) observations.
    counts: _np.ndarray
    #: covered member bit -> the merged (mode, listed) policy.
    policies: Dict[int, Tuple[str, FrozenSet[int]]]
    #: covered member bit -> observation provenance ("passive"/...).
    sources: Dict[int, FrozenSet[str]]
    #: the exact provenance populations (can contain non-universe ASNs).
    passive_members: FrozenSet[int]
    active_members: FrozenSet[int]
    #: looking-glass queries spent collecting this plane.
    active_queries: int
    #: require_reciprocity -> (sorted uint64 link keys, pair tuple),
    #: built together on first use of either.
    _links: Dict[bool, Tuple[object, Tuple[Link, ...]]] = field(
        default_factory=dict, repr=False)

    # -- geometry ------------------------------------------------------------

    @property
    def num_members(self) -> int:
        return len(self.index)

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
            rows, cols = reciprocal_cells(self.allow, len(universe),
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
            return int(_np.bitwise_count(self.allow[bit]).sum()) / others
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

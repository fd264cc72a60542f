"""Per-IXP route-server community grammars (Table 1 of the paper).

Every IXP documents a small set of special-purpose BGP community values
its route servers interpret:

* ``ALL``      — announce to every RS member (the default behaviour);
* ``EXCLUDE``  — block the announcement towards a specific member;
* ``NONE``     — block the announcement towards everybody;
* ``INCLUDE``  — allow the announcement towards a specific member.

The encoding differs between IXPs (DE-CIX/MSK-IX encode the route-server
ASN, ECIX uses fixed offsets in the 64960/65000 range, some IXPs rely on
the ``0:peer-asn`` exclude form with the ALL community omitted), which is
exactly what makes IXP identification from passive data non-trivial
(section 4.2).  :class:`CommunityScheme` captures one grammar and knows
how to encode an export policy into communities and how to classify an
observed community back into an (action, peer ASN) pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.bgp.asn import Private16BitMapper, is_32bit_asn
from repro.bgp.communities import Community
from repro.bgp.policy import MODE_ALL_EXCEPT, MODE_NONE_EXCEPT


class RSAction(enum.Enum):
    """Actions a route-server community can signal."""

    ALL = "all"
    EXCLUDE = "exclude"
    NONE = "none"
    INCLUDE = "include"


@dataclass(frozen=True)
class Classification:
    """Result of classifying one community under one scheme."""

    action: RSAction
    peer_asn: Optional[int] = None


@dataclass(frozen=True)
class CommunityScheme:
    """The community grammar of a single IXP route server.

    ``exclude_high`` / ``include_high`` are the upper 16 bits used for the
    per-peer EXCLUDE / INCLUDE forms; ``all_community`` and
    ``none_community`` are the fixed-valued forms.  ``omit_all_by_default``
    reproduces operators that leave out the redundant ALL community, which
    removes the route-server ASN from the community set and forces the
    excluded-member disambiguation path of section 4.2.
    """

    ixp_name: str
    rs_asn: int
    all_community: Community
    none_community: Community
    exclude_high: int
    include_high: int
    omit_all_by_default: bool = False

    # -- constructors for the Table 1 families ---------------------------------

    @classmethod
    def rs_asn_style(cls, ixp_name: str, rs_asn: int,
                     omit_all_by_default: bool = False) -> "CommunityScheme":
        """DE-CIX / MSK-IX style: ALL=rs:rs, EXCLUDE=0:peer, NONE=0:rs,
        INCLUDE=rs:peer."""
        if is_32bit_asn(rs_asn):
            raise ValueError("route-server ASN must fit in 16 bits for this style")
        return cls(
            ixp_name=ixp_name,
            rs_asn=rs_asn,
            all_community=Community(rs_asn, rs_asn),
            none_community=Community(0, rs_asn),
            exclude_high=0,
            include_high=rs_asn,
            omit_all_by_default=omit_all_by_default,
        )

    @classmethod
    def zero_exclude_style(cls, ixp_name: str, rs_asn: int) -> "CommunityScheme":
        """Same grammar as :meth:`rs_asn_style` but the ALL community is
        customarily omitted, leaving only ``0:peer-asn`` EXCLUDE values in
        announcements (the MSK-IX ambiguity discussed in section 4.2)."""
        return cls.rs_asn_style(ixp_name, rs_asn, omit_all_by_default=True)

    @classmethod
    def offset_style(cls, ixp_name: str, rs_asn: int,
                     exclude_high: int = 64960,
                     include_high: int = 65000) -> "CommunityScheme":
        """ECIX style: ALL=rs:rs, EXCLUDE=64960:peer, NONE=65000:0,
        INCLUDE=65000:peer."""
        if is_32bit_asn(rs_asn):
            raise ValueError("route-server ASN must fit in 16 bits for this style")
        return cls(
            ixp_name=ixp_name,
            rs_asn=rs_asn,
            all_community=Community(rs_asn, rs_asn),
            none_community=Community(include_high, 0),
            exclude_high=exclude_high,
            include_high=include_high,
        )

    @classmethod
    def from_style(cls, style: str, ixp_name: str, rs_asn: int) -> "CommunityScheme":
        """Build a scheme from a style name used by the generator specs."""
        if style == "rs-asn":
            return cls.rs_asn_style(ixp_name, rs_asn)
        if style == "zero-exclude":
            return cls.zero_exclude_style(ixp_name, rs_asn)
        if style == "offset":
            return cls.offset_style(ixp_name, rs_asn)
        raise ValueError(f"unknown community scheme style {style!r}")

    # -- encoding ---------------------------------------------------------------

    def exclude(self, peer_asn: int, mapper: Optional[Private16BitMapper] = None) -> Community:
        """EXCLUDE community for *peer_asn* (mapped to 16 bits if needed)."""
        return Community(self.exclude_high, self._encode_peer(peer_asn, mapper))

    def include(self, peer_asn: int, mapper: Optional[Private16BitMapper] = None) -> Community:
        """INCLUDE community for *peer_asn* (mapped to 16 bits if needed)."""
        return Community(self.include_high, self._encode_peer(peer_asn, mapper))

    def _encode_peer(self, peer_asn: int, mapper: Optional[Private16BitMapper]) -> int:
        if is_32bit_asn(peer_asn):
            if mapper is None:
                raise ValueError(
                    f"32-bit ASN {peer_asn} requires a Private16BitMapper")
            return mapper.alias_for(peer_asn)
        return peer_asn

    def encode_policy(
        self,
        mode: str,
        listed: Iterable[int],
        mapper: Optional[Private16BitMapper] = None,
        include_all_marker: Optional[bool] = None,
    ) -> FrozenSet[Community]:
        """Encode an export policy into the community set a member attaches.

        ``mode`` is ``"all-except"`` or ``"none-except"``; ``listed`` holds
        the excluded / included peer ASNs respectively.
        """
        communities: Set[Community] = set()
        listed = list(listed)
        if mode == MODE_ALL_EXCEPT:
            if include_all_marker is None:
                include_all_marker = not self.omit_all_by_default
            if include_all_marker:
                communities.add(self.all_community)
            for peer in listed:
                communities.add(self.exclude(peer, mapper))
        elif mode == MODE_NONE_EXCEPT:
            communities.add(self.none_community)
            for peer in listed:
                communities.add(self.include(peer, mapper))
        else:
            raise ValueError(f"unknown export mode {mode!r}")
        return frozenset(communities)

    # -- classification -----------------------------------------------------------

    def classify(self, community: Community) -> Optional[Classification]:
        """Interpret *community* under this scheme, or None if it does not
        belong to the scheme's grammar."""
        if community == self.all_community:
            return Classification(RSAction.ALL)
        if community == self.none_community:
            return Classification(RSAction.NONE)
        if community.high == self.exclude_high:
            return Classification(RSAction.EXCLUDE, community.low)
        if community.high == self.include_high:
            return Classification(RSAction.INCLUDE, community.low)
        return None

    def classify_set(
        self, communities: Iterable[Community]
    ) -> List[Tuple[Community, Classification]]:
        """Classify every community that belongs to this scheme."""
        result = []
        for community in communities:
            classification = self.classify(community)
            if classification is not None:
                result.append((community, classification))
        return result

    def mentions_rs_asn(self, communities: Iterable[Community]) -> bool:
        """True if any community encodes the route-server ASN in either
        half — the primary IXP-identification signal of section 4.2."""
        for community in communities:
            if community.high == self.rs_asn or community.low == self.rs_asn:
                return True
        return False

    def is_rs_community(self, community: Community) -> bool:
        """True if *community* belongs to this scheme's grammar."""
        return self.classify(community) is not None

    def table1_row(self) -> Dict[str, str]:
        """The scheme rendered as a row of the paper's Table 1."""
        return {
            "IXP": self.ixp_name,
            "RS-ASN": str(self.rs_asn),
            "ALL": str(self.all_community),
            "EXCLUDE": f"{self.exclude_high}:peer-asn",
            "NONE": str(self.none_community),
            "INCLUDE": f"{self.include_high}:peer-asn",
        }


class SchemeRegistry:
    """All known IXP community schemes, indexed by IXP name."""

    def __init__(self, schemes: Iterable[CommunityScheme] = ()) -> None:
        self._schemes: Dict[str, CommunityScheme] = {}
        for scheme in schemes:
            self.add(scheme)

    def add(self, scheme: CommunityScheme) -> None:
        """Register *scheme* (replacing any previous scheme for the IXP)."""
        self._schemes[scheme.ixp_name] = scheme

    def get(self, ixp_name: str) -> CommunityScheme:
        """Scheme for *ixp_name* (KeyError if unknown)."""
        return self._schemes[ixp_name]

    def __contains__(self, ixp_name: str) -> bool:
        return ixp_name in self._schemes

    def __iter__(self):
        return iter(self._schemes.values())

    def __len__(self) -> int:
        return len(self._schemes)

    def table1(self) -> List[Dict[str, str]]:
        """The registry rendered as the paper's Table 1."""
        return [self._schemes[name].table1_row() for name in sorted(self._schemes)]

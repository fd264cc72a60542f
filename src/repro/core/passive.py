"""Passive inference from archived collector data (section 4.2).

Collector feeds expose RS communities because BGP communities are
optional *transitive* attributes: when an RS member (the *RS feeder*)
re-exports routes learned via a route server to its customers or to a
collector, the communities attached by the announcing members survive.
The passive pipeline is:

1. filter the archived AS paths (reserved/private ASNs, cycles,
   transients);
2. classify the communities on each surviving entry and attribute them to
   an IXP route server (RS-ASN match or excluded-member combination);
3. pin-point the *RS setter* — the member that attached the communities —
   from the IXP participants on the AS path, using inferred business
   relationships when more than two participants appear
   (:func:`identify_setter`);
4. emit per-(IXP, setter, prefix) observation rows that feed the same
   step-4/step-5 machinery as the active data.

:func:`repro.core.planes.extract_passive_planes` runs the pipeline over
the archive's columns, calling the setter rule once per distinct (IXP,
AS path).
"""

from __future__ import annotations

from typing import Collection, List, Mapping, Optional, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.policy import Relationship


def identify_setter(
    members: Collection[int],
    as_path: ASPath,
    relationships: Mapping[Tuple[int, int], Relationship],
) -> Optional[int]:
    """Pin-point the RS setter on an entry's AS path (section 4.2).

    *members* are the IXP's route-server members and *relationships*
    the ordered-pair relationship map.  The path is ordered
    observer-side first, origin last.  The three cases: fewer than two
    IXP participants -> unknown; exactly two -> the participant closer
    to the origin; more than two -> the participant closer to the origin
    among the (single) pair of adjacent participants with a p2p
    relationship.
    """
    path = as_path.deduplicated().asns
    participant_positions = [index for index, asn in enumerate(path)
                             if asn in members]
    if len(participant_positions) < 2:
        return None
    if len(participant_positions) == 2:
        return path[participant_positions[-1]]
    return _setter_from_relationships(path, participant_positions,
                                      relationships)


def _setter_from_relationships(
    path: Tuple[int, ...],
    participant_positions: List[int],
    relationships: Mapping[Tuple[int, int], Relationship],
) -> Optional[int]:
    # Look for an adjacent pair of participants whose link is p2p; the
    # setter is the endpoint closer to the prefix (larger index).
    p2p_pairs: List[Tuple[int, int]] = []
    for left_pos, right_pos in zip(participant_positions,
                                   participant_positions[1:]):
        if right_pos != left_pos + 1:
            continue
        left, right = path[left_pos], path[right_pos]
        # Peering reads the same from either end of the link.
        relationship = relationships.get((left, right)) \
            or relationships.get((right, left))
        if relationship in (Relationship.PEER, Relationship.RS_PEER):
            p2p_pairs.append((left_pos, right_pos))
    if len(p2p_pairs) == 1:
        return path[p2p_pairs[0][1]]
    if not p2p_pairs:
        # No p2p link identified among participants: fall back to the
        # participant closest to the origin (conservative choice).
        return path[participant_positions[-1]]
    # More than one p2p pair should not happen on a valley-free path;
    # refuse to guess.
    return None

"""Per-member reference for connectivity discovery.

Production (:meth:`repro.core.connectivity.ConnectivityDiscovery.
discover`) builds each IXP's route-server member set once and records
every source's members in one bulk step.  :func:`discover` keeps the
loop it replaced: one ``add`` per discovered ASN, and a fresh sorted RS
member list (``ixp.rs_members()``) for every listed website member.
:func:`report_differences` compares two report maps field by field.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.connectivity import ConnectivityDiscovery, ConnectivityReport
from repro.ixp.ixp import IXP
from repro.ixp.looking_glass import RouteServerLookingGlass


def discover(discovery: ConnectivityDiscovery, ixp: IXP,
             rs_lg: Optional[RouteServerLookingGlass] = None,
             rs_asn: Optional[int] = None) -> ConnectivityReport:
    """The report of ``discovery.discover(ixp, rs_lg, rs_asn)``, one
    member at a time (the first source to report an ASN wins)."""
    report = ConnectivityReport(ixp_name=ixp.name)

    def add(asn: int, source: str) -> None:
        if asn not in report.members:
            report.members.add(asn)
            report.sources[asn] = source

    if rs_lg is not None:
        for _, asn in rs_lg.show_ip_bgp_summary():
            add(asn, "lg")

    if discovery.irr is not None:
        as_set_name = discovery.as_set_names.get(ixp.name)
        if as_set_name:
            as_set = discovery.irr.as_set(as_set_name)
            if as_set is not None:
                for asn in sorted(as_set.members):
                    add(asn, "as-set")

    website_members = ixp.member_list()
    if website_members and ixp.has_route_server():
        for asn in website_members:
            if asn in ixp.rs_members():
                add(asn, "website")

    if not report.members and discovery.irr is not None \
            and rs_asn is not None:
        for asn in discovery.irr.ases_referencing(rs_asn):
            if asn != rs_asn:
                add(asn, "irr-search")
        report.complete = False

    if not report.members:
        report.complete = False
    return report


def discover_all(discovery: ConnectivityDiscovery, ixps: Iterable[IXP],
                 rs_lgs: Optional[Mapping[str, RouteServerLookingGlass]] = None,
                 rs_asns: Optional[Mapping[str, int]] = None
                 ) -> Dict[str, ConnectivityReport]:
    """:func:`discover` for every IXP, indexed by name."""
    rs_lgs = rs_lgs or {}
    rs_asns = rs_asns or {}
    return {ixp.name: discover(discovery, ixp, rs_lgs.get(ixp.name),
                               rs_asns.get(ixp.name))
            for ixp in ixps}


def report_differences(mine: Mapping[str, ConnectivityReport],
                       theirs: Mapping[str, ConnectivityReport]
                       ) -> List[str]:
    """Every IXP whose ``members``, per-ASN ``sources`` (insertion order
    included) or ``complete`` flag differ (empty means exact)."""
    if list(mine) != list(theirs):
        return [f"IXPs differ: {list(mine)} vs {list(theirs)}"]
    problems = []
    for name in mine:
        left, right = mine[name], theirs[name]
        if left.members != right.members:
            problems.append(f"{name}: members differ")
        if list(left.sources.items()) != list(right.sources.items()):
            problems.append(f"{name}: sources differ")
        if left.complete != right.complete:
            problems.append(f"{name}: complete differs")
    return problems

#!/usr/bin/env python3
"""Quickstart: infer multilateral peering links at a toy IXP.

Builds a four-member route server by hand (the figure 3 example of the
paper), runs the inference engine over its looking glass (active
inference, steps 1-5 of section 4.1) and prints each member's
reconstructed export policy and the inferred p2p links.

Run with:  python examples/quickstart.py
"""

from repro.bgp.prefix import Prefix
from repro.core.engine import MLPInferenceEngine
from repro.ixp.community_schemes import CommunityScheme, SchemeRegistry
from repro.ixp.looking_glass import RouteServerLookingGlass
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer
from repro.runtime.reachmatrix import unpack_plane


def main() -> None:
    # 1. The IXP's documented community grammar (Table 1, DE-CIX style).
    scheme = CommunityScheme.rs_asn_style("DE-CIX", rs_asn=6695)
    registry = SchemeRegistry([scheme])

    # 2. A route server with four members: A excludes C, everyone else is open.
    a, b, c, d = 64496, 64497, 64498, 64499
    route_server = RouteServer("DE-CIX", rs_asn=6695, scheme=scheme)
    route_server.add_member(a, MemberExportPolicy.all_except(a, "DE-CIX", {c}))
    route_server.add_member(b, MemberExportPolicy.announce_to_all(b, "DE-CIX"))
    route_server.add_member(c, MemberExportPolicy.announce_to_all(c, "DE-CIX"))
    route_server.add_member(d, MemberExportPolicy.announce_to_all(d, "DE-CIX"))
    for index, member in enumerate((a, b, c, d)):
        route_server.announce(member, Prefix.parse(f"198.51.{index}.0/24"))

    # 3. Run the engine over the route-server looking glass: steps 1-3 of
    #    section 4.1 query it, step 4 builds each member's N_a.
    engine = MLPInferenceEngine(registry, {"DE-CIX": route_server.members()},
                                mappers={"DE-CIX": route_server.mapper})
    result = engine.run(
        rs_looking_glasses={"DE-CIX": RouteServerLookingGlass(route_server)})
    plane = result.matrix.planes["DE-CIX"]
    members = plane.index.universe
    print(f"route-server members (A_RS): {list(members)}")
    print(f"looking-glass queries used:  {plane.active_queries}")
    allow = unpack_plane(plane.allow, len(members))
    for bit, (mode, _) in sorted(plane.policies.items()):
        allowed = [members[peer] for peer in allow[bit].nonzero()[0]]
        print(f"  AS{members[bit]} ({mode}) allows -> {allowed}")

    # 4. Reciprocal ALLOW => p2p link (step 5).
    links = result.matrix.links_of("DE-CIX")
    print(f"\ninferred multilateral peering links ({len(links)}):")
    for left, right in links:
        print(f"  AS{left} -- AS{right}")
    print("\nnote: AS%d and AS%d have no link because A excludes C." % (a, c))


if __name__ == "__main__":
    main()

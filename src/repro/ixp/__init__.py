"""IXP substrate: route servers, community schemes, looking glasses.

Models the control-plane machinery of an Internet eXchange Point as the
paper relies on it: members announce routes to one or more route servers,
tag them with the IXP's documented BGP community values (ALL / EXCLUDE /
NONE / INCLUDE, Table 1) to control which other members receive them, and
expose looking-glass interfaces that allow non-privileged BGP queries.
"""

from repro.ixp.community_schemes import (
    RSAction,
    CommunityScheme,
    SchemeRegistry,
)
from repro.ixp.member import MemberExportPolicy
from repro.ixp.route_server import RouteServer, RouteServerEntry
from repro.ixp.ixp import IXP
from repro.ixp.looking_glass import (
    LGRoute,
    LGQueryCounter,
    RouteServerLookingGlass,
    ASLookingGlass,
)

__all__ = [
    "RSAction",
    "CommunityScheme",
    "SchemeRegistry",
    "MemberExportPolicy",
    "RouteServer",
    "RouteServerEntry",
    "IXP",
    "LGRoute",
    "LGQueryCounter",
    "RouteServerLookingGlass",
    "ASLookingGlass",
]

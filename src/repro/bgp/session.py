"""BGP session counts of the paper's figure 1.

A full mesh of bilateral sessions grows quadratically with the number
of peers; peering through route servers grows linearly.
"""

from __future__ import annotations


def bilateral_session_count(num_peers: int) -> int:
    """Number of BGP sessions needed for a full mesh of *num_peers* ASes
    peering bilaterally: n(n-1)/2 (figure 1a)."""
    if num_peers < 0:
        raise ValueError("number of peers must be non-negative")
    return num_peers * (num_peers - 1) // 2


def multilateral_session_count(num_peers: int, num_route_servers: int = 1) -> int:
    """Number of BGP sessions needed when the same ASes peer through
    *num_route_servers* route servers: c * n (figure 1b)."""
    if num_peers < 0 or num_route_servers < 0:
        raise ValueError("counts must be non-negative")
    return num_peers * num_route_servers

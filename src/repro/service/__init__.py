"""Query service over mmap-able reachability artifacts.

Two layers:

- :mod:`repro.service.artifact` — a versioned on-disk schema for
  :class:`~repro.runtime.reachmatrix.ReachabilityMatrix` (packed uint64
  member x member planes, provenance masks, counts, link CSR) that
  loads back through ``np.load(..., mmap_mode="r")`` so N workers share
  one page-cache copy, with bit-identity checkable via
  :func:`verify_identity`.
- :mod:`repro.service.daemon` — the asyncio HTTP daemon serving
  ``has_link`` / ``links_of`` / ``peer_counts`` / ``member_densities``
  / ``table2`` per registered scenario, warmed through the pipeline's
  artifact cache.

:mod:`repro.service.loadgen` drives the daemon over HTTP (the
query-service example); :mod:`repro.service.smoke` is the CI end-to-end
check against the golden pins.
"""

from repro.service.artifact import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ArtifactFormatError,
    ArtifactHandle,
    load_matrix,
    save_matrix,
    verify_identity,
)
from repro.service.daemon import (
    ENDPOINTS,
    QueryService,
    ServerThread,
    warm_service,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ArtifactFormatError",
    "ArtifactHandle",
    "load_matrix",
    "save_matrix",
    "verify_identity",
    "ENDPOINTS",
    "QueryService",
    "ServerThread",
    "warm_service",
]

"""Pin the propagation engine to one kernel for a test.

:class:`~repro.bgp.propagation.PropagationEngine` picks its kernel per
``batch_fragments`` call from the number of uncached origins (at least
:data:`~repro.bgp.propagation.COMPILED_MIN_ORIGINS` run the compiled
multi-origin kernel, fewer the frontier BFS).  The differential suites
run every scenario three ways, by kernel name:

* ``"frontier"`` — the frontier BFS for every batch;
* ``"compiled"`` — the compiled kernel for every batch, even one origin;
* ``"batched"`` — the production rule, unpatched: each batch takes the
  kernel its size selects.
"""

from __future__ import annotations

import contextlib
import sys

from repro.bgp import propagation

#: The kernel names the differential suites parametrize over.
KERNELS = ("frontier", "batched", "compiled")

_THRESHOLDS = {"frontier": sys.maxsize, "compiled": 1}


@contextlib.contextmanager
def forced_kernel(kernel: str):
    """Run the enclosed block with the engine pinned to *kernel*
    (``"batched"`` leaves the production threshold in place)."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    saved = propagation.COMPILED_MIN_ORIGINS
    propagation.COMPILED_MIN_ORIGINS = _THRESHOLDS.get(kernel, saved)
    try:
        yield
    finally:
        propagation.COMPILED_MIN_ORIGINS = saved

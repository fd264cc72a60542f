"""Propagation kernels through the staged pipeline and its caches.

There is no backend selector: the engine picks its kernel per batch
(:data:`~repro.bgp.propagation.COMPILED_MIN_ORIGINS`), so the kernel is
not part of any fingerprint.  These tests pin the engine to one kernel
(:mod:`tests.oracle.kernels`) and require identical pipeline results.
"""

from __future__ import annotations

import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.spec import get_scenario

from tests.oracle.kernels import forced_kernel


def tiny_config():
    return get_scenario("europe2013").config("tiny")


class TestBackendFingerprints:
    def test_unknown_backend_rejected(self):
        """No propagation-backend knob remains: passing one is rejected."""
        with pytest.raises(TypeError, match="backend"):
            ScenarioRun(tiny_config(), backend="compiled")


class TestBackendArtifactIsolation:
    @pytest.mark.parametrize("backend", ["batched", "compiled"])
    def test_vector_pipeline_results_equal_frontier(self, backend):
        """The production rule (``batched``) and the compiled kernel
        everywhere give the frontier kernel's inference."""
        with forced_kernel("frontier"):
            frontier = ScenarioRun(tiny_config(),
                                   cache=ArtifactCache()).inference()
        with forced_kernel(backend):
            vectorized = ScenarioRun(tiny_config(),
                                     cache=ArtifactCache()).inference()
        assert frontier.matrix.all_links() == vectorized.matrix.all_links()
        assert frontier.matrix.links_by_ixp() == \
            vectorized.matrix.links_by_ixp()

"""The cold build observes in columns: no route objects, no list caches.

After ``run.artifact("reachability")`` on every registered scenario at
tiny, collection and the viewpoints stage must have read the
propagation result only through its ``ObservationIndex`` columns: no
recorded :class:`~repro.runtime.fragments.RouteBlock` may have built its
Python-list cache (``_scalars``) or its row views (``_rows``), and every
validation looking glass must hold its observer's view as a bulk
:class:`~repro.runtime.fragments.ObserverView` of a fixed number of
objects (index arrays plus the result's shared index and prefix column),
nothing decoded or materialised yet.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.fragments import ObserverView
from repro.scenarios.spec import get_scenario, scenario_names


def view_objects(view: ObserverView, shared) -> list:
    """The objects *view* owns: its referents other than the shared
    ones, its class and None."""
    return [obj for obj in gc.get_referents(view)
            if obj is not None and not isinstance(obj, type)
            and not any(obj is other for other in shared)]


@pytest.mark.parametrize("name", scenario_names())
def test_build_reads_observations_in_columns(name):
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    run.artifact("reachability")
    propagation = run.artifact("propagation")["propagation"]
    blocks = [block for pair in propagation.recorded_fragments().values()
              for block in pair]
    assert blocks
    built = [block for block in blocks
             if block._scalars is not None or block._rows is not None]
    assert not built, f"{len(built)} of {len(blocks)} blocks cached rows"

    shared = (propagation.observation_index(), propagation.origin_prefixes())
    lgs = run.artifact("viewpoints")["validation_lgs"]
    loaded = [lg for lg in lgs if lg._view is not None]
    assert loaded
    for lg in loaded:
        view = lg._view
        assert isinstance(view, ObserverView)
        assert view.index is shared[0] and view.prefixes is shared[1]
        owned = view_objects(view, shared)
        assert len(owned) == 4, owned
        assert all(type(obj) is np.ndarray and obj.dtype != object
                   for obj in owned)
        assert view._decoded is None
        assert not lg._routes

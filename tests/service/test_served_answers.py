"""The daemon's answers against the matrix they were served from.

Every registered scenario is built at tiny, exported and re-loaded
through :meth:`QueryService.from_artifacts` — what each forked worker
runs — and every answer is checked against the in-memory
:class:`~repro.runtime.reachmatrix.ReachabilityMatrix`:

- ``has_link`` on every link in both orders and on a seeded sample of
  member pairs that are not links;
- ``links_of`` on every AS with a link;
- the four parameter-free answers, byte for byte (``json.dumps``)
  against answers built inline in the daemon's key order, and shared:
  a second request returns the same object;
- the CSR columns the point queries read are plain ``ndarray`` views of
  the mmap, so workers share one page-cache copy.
"""

from __future__ import annotations

import itertools
import json
import mmap
import random

import numpy as np
import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.spec import get_scenario, scenario_names
from repro.service.artifact import save_matrix
from repro.service.daemon import QueryService

#: Parameter-free endpoints: built once per artifact.
FIXED_ENDPOINTS = ("peer_counts", "member_densities", "table2", "summary")
NON_LINK_SAMPLE = 200


@pytest.fixture(scope="module", params=scenario_names())
def served(request, tmp_path_factory):
    """``(name, built matrix, run, worker service)`` for one scenario."""
    name = request.param
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    directory = run.export_reachability(
        tmp_path_factory.mktemp("served") / name, size="tiny")
    service = QueryService.from_artifacts([directory])
    return name, run.reachability(), run, service


def _ask(service, target):
    status, payload = service.dispatch(target)
    assert status == 200, (target, payload)
    json.dumps(payload)  # JSON-safe: plain ints and bools only
    return payload


def test_has_link_on_links_and_non_links(served):
    name, matrix, _run, service = served
    links = matrix.all_links()
    assert links
    for a, b in links:
        for x, y in ((a, b), (b, a)):
            payload = _ask(service, f"/q/{name}/has_link?a={x}&b={y}")
            assert payload["has_link"] is True, (x, y)
    linked = set(links)
    members = sorted({asn for plane in matrix.planes.values()
                      for asn in plane.index.universe})
    non_links = [pair for pair in itertools.combinations(members, 2)
                 if pair not in linked]
    for a, b in random.Random(20130501).sample(non_links, NON_LINK_SAMPLE):
        for x, y in ((a, b), (b, a)):
            payload = _ask(service, f"/q/{name}/has_link?a={x}&b={y}")
            assert payload["has_link"] is False, (x, y)


def test_links_of_every_peer_as(served):
    name, matrix, _run, service = served
    neighbours = {}
    for a, b in matrix.all_links():
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    handle = service.handles[name]
    assert handle.peer_asns.tolist() == sorted(neighbours)
    for asn in handle.peer_asns.tolist():
        payload = _ask(service, f"/q/{name}/links_of?asn={asn}")
        assert payload["peers"] == sorted(neighbours[asn]), asn
        assert payload["count"] == len(neighbours[asn])


def _inline_answers(name, matrix, handle):
    """The parameter-free answers, built the way dispatch once built
    them on every request."""
    counts = matrix.peer_counts()
    densities = handle.member_densities()
    return {
        "peer_counts": {"scenario": name, "ases": len(counts),
                        "counts": {str(asn): count
                                   for asn, count in counts.items()}},
        "member_densities": {"scenario": name, "densities": {
            ixp: {str(asn): value for asn, value in sorted(per.items())}
            for ixp, per in sorted(densities.items())}},
        "table2": {"scenario": name, "rows": handle.table2},
        "summary": {"scenario": name, **handle.summary()},
    }


def test_fixed_answers_match_inline_answers(served):
    name, matrix, run, service = served
    handle = service.handles[name]
    assert handle.table2 == run.table2()
    inline = _inline_answers(name, matrix, handle)
    for endpoint in FIXED_ENDPOINTS:
        payload = _ask(service, f"/q/{name}/{endpoint}")
        assert json.dumps(payload) == json.dumps(inline[endpoint]), endpoint


def test_fixed_answers_are_built_once(served):
    name, _matrix, _run, service = served
    for endpoint in FIXED_ENDPOINTS:
        first = service.dispatch(f"/q/{name}/{endpoint}")
        assert service.dispatch(f"/q/{name}/{endpoint}")[1] is first[1]
        assert service.answers[name, endpoint] is first


def test_missing_table2_answers_404(served, tmp_path):
    name, matrix, _run, _service = served
    directory = save_matrix(matrix, tmp_path / name, scenario=name)
    service = QueryService.from_artifacts([directory])
    status, payload = service.dispatch(f"/q/{name}/table2")
    assert status == 404 and "without Table 2" in payload["error"]
    assert service.dispatch(f"/q/{name}/summary")[1]["has_table2"] is False


def test_csr_columns_are_plain_views_of_the_mmap(served):
    name, _matrix, _run, service = served
    handle = service.handles[name]
    for column in (handle.peer_asns, handle.peer_offsets,
                   handle.peer_neighbors):
        assert type(column) is np.ndarray
        base = column
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, mmap.mmap)

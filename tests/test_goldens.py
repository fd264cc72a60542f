"""Golden regression fixtures for every registered scenario.

Each file under ``tests/goldens/`` freezes a scenario family's tiny-size
outcome: the full inferred link set, the Table 2 rows and a sha256
digest of the canonical link-set JSON — pinned twice, under the
``inference_backends`` key: ``bitset`` from the production inference
engine and ``object`` from the per-IXP object oracle
(:mod:`tests.oracle.inference`), which are required to be bit-identical.
The test regenerates every scenario through the staged pipeline and
diffs against the goldens, so any change to generation, propagation
(either kernel), inference or their orderings shows up as a reviewable
fixture diff instead of a silent behaviour change — and a divergence
between production and the oracle fails the pins even before the
differential suite runs.  Independently of the pins, every scenario's
links must clear absolute precision and recall floors against the
synthetic ground truth.

Refresh intentionally with::

    pytest tests/test_goldens.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.pipeline.analyses import _analyse_table2
from repro.scenarios.spec import get_scenario, scenario_names

from tests.oracle.inference import run_object_inference
from tests.oracle.kernels import KERNELS, forced_kernel

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_SIZE = "tiny"

#: The paper's precision: 98.4% of the inferred links it could test
#: were confirmed.  Every scenario measures 1.0000 at tiny size.
PRECISION_FLOOR = 0.98

#: Per-scenario recall floors against ``Scenario.ground_truth_links()``
#: at tiny size, each set just under its measured value (in the
#: comment).  Recall is below 1 by design: members whose policy no
#: collector or looking glass reveals stay uncovered.
RECALL_FLOORS = {
    "europe2013": 0.91,             # measured 0.916
    "europe2013-churn": 0.91,       # measured 0.916
    "europe2013-failover": 0.91,    # measured 0.916
    "europe2013-flap-storm": 0.91,  # measured 0.916
    "growth-sweep-2014": 0.91,      # measured 0.917
    "growth-sweep-2016": 0.92,      # measured 0.925
    "growth-sweep-2018": 0.91,      # measured 0.920
    "hypergiant2016": 0.84,         # measured 0.847
    "sparse-view": 0.53,            # measured 0.539 (sparse observation)
}


def links_digest(links) -> str:
    """sha256 over the canonical JSON form of a link list."""
    payload = json.dumps([[int(a), int(b)] for a, b in links],
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def json_digest(payload) -> str:
    """sha256 over canonical JSON of an arbitrary payload."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def entry_rows(entries):
    """Canonical order-sensitive JSON rows for a RIB entry list."""
    return [[entry.peer_asn, str(entry.prefix), list(entry.as_path.asns),
             sorted(c.value for c in entry.communities),
             entry.collector, entry.timestamp]
            for entry in entries]


def lg_rows(lg):
    """Canonical order-sensitive query table of a looking glass; resets
    the query counter so the pin itself never perturbs cost analyses."""
    rows = []
    for prefix in lg.prefixes():
        for route in lg.show_ip_bgp_prefix(prefix):
            rows.append([str(prefix), list(route.as_path),
                         sorted(c.value for c in route.communities),
                         route.best, route.learned_from])
    lg.counter.reset()
    return rows


def observation_pins(run) -> dict:
    """Digests freezing the observation plane: the archive's entry lists
    (raw + stable + clean-stable, byte-exact including order) and every
    validation LG's full query table."""
    archive = run.artifact("collectors")["archive"]
    validation_lgs = run.artifact("viewpoints")["validation_lgs"]
    all_rows = entry_rows(archive.all_entries())
    return {
        "num_entries": len(all_rows),
        "entries_sha256": json_digest(all_rows),
        "stable_sha256": json_digest(entry_rows(archive.stable_entries())),
        "clean_stable_sha256": json_digest(
            entry_rows(archive.clean_stable_entries())),
        "num_validation_lgs": len(validation_lgs),
        "validation_lgs_sha256": json_digest(
            [[lg.asn, lg.display_all_paths, lg_rows(lg)]
             for lg in validation_lgs]),
    }


def link_pins(links, table2) -> dict:
    """The pinned view of one inference result."""
    links = [[int(a), int(b)] for a, b in links]
    return {"num_links": len(links), "links_sha256": links_digest(links),
            "links": links, "table2": [dict(row) for row in table2]}


def build_golden(name: str) -> dict:
    """One scenario's golden payload, regenerated from scratch.

    The scenario builds once; production inference runs through the
    pipeline, the object oracle over the same scenario artifacts, and
    each one's links/Table 2 are pinned separately.
    """
    spec = get_scenario(name)
    run = ScenarioRun(spec.config(GOLDEN_SIZE), scenario=name,
                      cache=ArtifactCache())
    production = link_pins(run.inference().matrix.all_links(),
                           run.table2())
    oracle_result = run_object_inference(run)
    oracle = link_pins(oracle_result.matrix.all_links(), _analyse_table2(
        run.scenario(), oracle_result, run.analysis_options)["rows"])
    return {
        "scenario": name,
        "size": GOLDEN_SIZE,
        "num_links": production["num_links"],
        "links_sha256": production["links_sha256"],
        "links": production["links"],
        "table2": production["table2"],
        "observation": observation_pins(run),
        "inference_backends": {
            engine: {"num_links": payload["num_links"],
                     "links_sha256": payload["links_sha256"],
                     "table2": payload["table2"]}
            for engine, payload in (("bitset", production),
                                    ("object", oracle))},
        "_truth": run.scenario().ground_truth_links(),
    }


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_golden(name, request):
    """Tiny-size links and Table 2 are bit-identical to the committed
    golden (regenerate intentionally with ``--update-goldens``), and
    clear the accuracy floors against the ground truth."""
    fresh = build_golden(name)
    truth = fresh.pop("_truth")
    path = golden_path(name)
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    assert path.is_file(), (
        f"no golden for scenario {name!r}; run "
        f"pytest tests/test_goldens.py --update-goldens to create it")
    golden = json.loads(path.read_text())
    assert fresh["links_sha256"] == golden["links_sha256"], (
        f"{name}: link set diverged from golden "
        f"({fresh['num_links']} vs {golden['num_links']} links)")
    assert fresh["links"] == golden["links"]
    assert fresh["table2"] == golden["table2"]
    assert fresh["observation"] == golden["observation"], (
        f"{name}: archive entry lists or validation LG tables diverged")
    assert fresh["inference_backends"] == golden["inference_backends"], (
        f"{name}: production or oracle inference pins diverged")
    # Production and oracle are required to be bit-identical to each
    # other, not just individually stable.
    pins = fresh["inference_backends"]
    assert pins["object"] == pins["bitset"], (
        f"{name}: production inference disagrees with the object oracle")

    found = {(a, b) for a, b in fresh["links"]}
    hits = len(found & truth)
    precision = hits / len(found)
    recall = hits / len(truth)
    assert precision >= PRECISION_FLOOR, (
        f"{name}: precision {precision:.4f} < {PRECISION_FLOOR}")
    assert recall >= RECALL_FLOORS[name], (
        f"{name}: recall {recall:.4f} < {RECALL_FLOORS[name]}")


@pytest.mark.parametrize("backend", [k for k in KERNELS if k != "frontier"])
@pytest.mark.parametrize("name", scenario_names())
def test_propagation_backends_match_golden_links(name, backend):
    """Every registered scenario reproduces its golden link set with the
    propagation engine pinned to one kernel (see
    :mod:`tests.oracle.kernels`): ``compiled`` runs the compiled kernel
    for every batch, timeline recomputes of a single origin included;
    ``batched`` runs the production batch-size rule.  Together with
    ``test_scenario_matches_golden`` and the frontier-pinned
    differential suites, the goldens pin both kernels alike."""
    spec = get_scenario(name)
    with forced_kernel(backend):
        run = ScenarioRun(spec.config(GOLDEN_SIZE), scenario=name,
                          cache=ArtifactCache())
        links = [[int(a), int(b)]
                 for a, b in run.inference().matrix.all_links()]
    golden = json.loads(golden_path(name).read_text())
    assert links_digest(links) == golden["links_sha256"], (
        f"{name}: {backend} links diverged from the golden")
    assert links == golden["links"]


def test_goldens_cover_every_registered_scenario():
    """No stale or missing fixtures: the goldens directory mirrors the
    scenario registry exactly."""
    assert GOLDEN_DIR.is_dir()
    on_disk = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))
    assert on_disk == scenario_names()

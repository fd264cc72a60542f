"""Corrupted disk-cache entries are misses, never wrong answers.

For each persisted stage of europe2013 at tiny, seeded bit flips, a
truncation and an entry swapped in from another fingerprint must each
be discarded and recomputed.  The stages downstream of the damaged one
have no entry, so the run builds them from what it read: every run
infers the cold run's links.
"""

from __future__ import annotations

import random

import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.pipeline.cache import HEADER_SIZE, MAGIC
from repro.scenarios.spec import get_scenario

PERSISTED = ("topology", "propagation", "inference")
FLIPS = 3


def _run(config, directory):
    return ScenarioRun(config, scenario="europe2013",
                       cache=ArtifactCache(directory))


def _flip(data: bytes, rng: random.Random) -> bytes:
    position = rng.randrange(len(data))
    flipped = bytearray(data)
    flipped[position] ^= 1 << rng.randrange(8)
    return bytes(flipped)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """The cold run's links, its entries and another fingerprint's."""
    directory = tmp_path_factory.mktemp("cache")
    spec = get_scenario("europe2013")
    runs = [_run(spec.config("tiny", seed), directory)
            for seed in (spec.base_seed, spec.base_seed + 1)]
    links = runs[0].inference().matrix.all_links()
    runs[1].inference()
    cache = ArtifactCache(directory)
    paths = {stage: [cache._disk_path(stage, run.fingerprint(stage))
                     for run in runs] for stage in PERSISTED}
    entries = {stage: [path.read_bytes() for path in pair]
               for stage, pair in paths.items()}
    return runs[0].config, directory, links, paths, entries


def _corruptions(data: bytes, other: bytes, rng: random.Random):
    for _ in range(FLIPS):
        yield "bit flip", _flip(data, rng)
    yield "truncation", data[:len(data) // 2]
    yield "swap", other


@pytest.mark.parametrize("stage", PERSISTED)
def test_corrupt_entries_recompute_the_cold_links(cold, stage):
    config, directory, links, paths, entries = cold
    rng = random.Random(7)
    upstream = PERSISTED[:PERSISTED.index(stage)]
    for kind, damaged in _corruptions(*entries[stage], rng):
        for each in PERSISTED:
            if each in upstream:
                paths[each][0].write_bytes(entries[each][0])
            elif each == stage:
                paths[each][0].write_bytes(damaged)
            else:
                paths[each][0].unlink(missing_ok=True)
        run = _run(config, directory)
        assert run.inference().matrix.all_links() == links, (stage, kind)
        statuses = run.stage_statuses()
        assert statuses[stage] == "computed", (stage, kind, statuses)


def test_entries_carry_the_header(cold):
    _config, _directory, _links, _paths, entries = cold
    for stage, pair in entries.items():
        for data in pair:
            assert data.startswith(MAGIC) and len(data) > HEADER_SIZE, stage


def test_headerless_entry_is_a_miss(cold, tmp_path):
    """An entry of the old format (a bare pickle) is discarded."""
    config, directory, links, paths, entries = cold
    for stage, (data, _other) in entries.items():
        paths[stage][0].write_bytes(data[HEADER_SIZE:])
    run = _run(config, directory)
    assert run.inference().matrix.all_links() == links
    assert {run.stage_statuses()[stage] for stage in PERSISTED} == \
        {"computed"}

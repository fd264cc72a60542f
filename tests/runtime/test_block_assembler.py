"""The batch-wide route-block assembler vs the per-block oracle, byte
for byte.

:func:`repro.runtime.fragments.blocks_from_columns` builds a whole run
of blocks with a fixed number of numpy calls; the oracle
(:mod:`tests.oracle.blocks`) builds each block on its own.  Every
column's dtype and bytes and every block's bag table must agree: on
seeded random columns, on every registered scenario at tiny under both
kernels, and on the replay result after every event of each registered
event family.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.runtime.fragments import PathTable, blocks_from_columns
from repro.runtime.stores import CommunityBagStore, PathStore
from repro.scenarios.events import (
    EVENT_FAMILIES,
    TimelineReplay,
    TimelineSpec,
    build_timeline,
    rebuild_propagation,
    record_sets,
)
from repro.scenarios.spec import get_scenario, scenario_names

from tests.oracle.blocks import (
    block_bytes,
    block_from_columns,
    per_block_assembler,
)
from tests.oracle.kernels import forced_kernel

#: The kernels a scenario's blocks are compared under.
ASSEMBLER_KERNELS = ("frontier", "compiled")


def assert_same_blocks(mine, theirs, label):
    """Two results' recorded (best, offered) blocks, byte for byte."""
    mine = mine.recorded_fragments()
    theirs = theirs.recorded_fragments()
    assert list(mine) == list(theirs), label
    for origin, pair in mine.items():
        for side, got, expected in zip(("best", "offered"), pair,
                                       theirs[origin]):
            assert block_bytes(got) == block_bytes(expected), \
                (label, origin, side)


# -- seeded random columns ----------------------------------------------------


def random_columns(rng):
    """A path store, a bag store and one run of block columns.

    Block shapes cover zero-row blocks, one-row blocks, a block whose
    pids are all negative, repeated pids within and across blocks and
    a block whose origin row (its first row) is masked out, like a
    batch row whose origin is not a recorded observer.
    """
    store = PathStore()
    cells = []
    for _ in range(120):
        parent = rng.choice(cells) if cells and rng.random() < 0.75 else -1
        cells.append(store.cons(rng.randrange(64500, 64600), parent))
    bags = CommunityBagStore()
    bag_ids = [bags.EMPTY] + [
        bags.intern(frozenset({(65000, rng.randrange(1, 50))
                               for _ in range(rng.randrange(1, 4))}))
        for _ in range(12)]
    shapes = ["empty", "one", "negative", "masked-origin"] + [
        "random"] * rng.randrange(3, 9)
    rng.shuffle(shapes)
    counts, columns = [], [[] for _ in range(5)]
    for shape in shapes:
        count = {"empty": 0, "one": 1}.get(shape, rng.randrange(2, 12))
        rows = []
        for row in range(count):
            pid = -1 if shape == "negative" else rng.choice(cells[:40])
            rows.append((rng.randrange(64500, 64600), rng.randrange(4),
                         rng.randrange(-1, 64600), pid,
                         rng.choice(bag_ids)))
        if shape == "masked-origin":
            rows = rows[1:]
        counts.append(len(rows))
        for column, values in zip(columns, zip(*rows) if rows else
                                  [()] * 5):
            column.extend(values)
    return store, bags, counts, [np.asarray(column, dtype=np.int64)
                                 for column in columns]


@pytest.mark.parametrize("seed", [1, 2, 3, 20130501, 424242])
def test_random_columns_match_per_block_oracle(seed):
    store, bags, counts, columns = random_columns(random.Random(seed))
    heads, parents = store.columns()
    table = PathTable(heads, parents, columns[3])
    got = blocks_from_columns(counts, *columns, bags.value, table)
    assert [len(block) for block in got] == counts
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for block, lo, hi in zip(got, bounds[:-1], bounds[1:]):
        expected = block_from_columns(
            *(column[lo:hi] for column in columns), bags.value, table)
        assert block_bytes(block) == block_bytes(expected), (seed, lo)


def test_block_columns_are_read_only():
    """Blocks are views into one run's arrays: a write through one block
    must not reach its neighbours, so every column refuses writes."""
    store, bags, counts, columns = random_columns(random.Random(9))
    heads, parents = store.columns()
    blocks = blocks_from_columns(counts, *columns, bags.value,
                                 PathTable(heads, parents, columns[3]))
    block = next(block for block in blocks if len(block.path_values))
    for name in ("asn", "provenance", "learned_from", "bag_id", "pid",
                 "path_offsets", "path_values"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(block, name)[0] = 0


def test_no_blocks_from_no_counts():
    bags = CommunityBagStore()
    empty = np.empty(0, dtype=np.int64)
    table = PathTable(empty, empty, empty)
    assert blocks_from_columns([], empty, empty, empty, empty, empty,
                               bags.value, table) == []


# -- every registered scenario, both kernels ----------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_blocks_match_per_block_oracle(name):
    run = ScenarioRun(get_scenario(name).config("tiny"), scenario=name,
                      cache=ArtifactCache())
    graph = run.artifact("topology").graph
    route_servers = run.artifact("ixps")["route_servers"]
    record_at, record_alt = record_sets(run.artifact("propagation"))
    for kernel in ASSEMBLER_KERNELS:
        with forced_kernel(kernel):
            _, mine = rebuild_propagation(graph, route_servers, record_at,
                                          record_alt)
            with per_block_assembler():
                _, theirs = rebuild_propagation(graph, route_servers,
                                                record_at, record_alt)
        assert_same_blocks(mine, theirs, (name, kernel))


# -- the replay result after every event --------------------------------------


@pytest.mark.parametrize("family", sorted(EVENT_FAMILIES))
def test_replay_blocks_match_per_block_oracle(churn_baseline, family):
    graph, route_servers, baseline, record_at, record_alt = churn_baseline
    events = build_timeline(TimelineSpec(family=family, length=8,
                                         seed=20130508),
                            graph, route_servers)
    mine = TimelineReplay(graph, route_servers, baseline, record_at,
                          record_alt)
    theirs = TimelineReplay(graph, route_servers, baseline, record_at,
                            record_alt)
    for index, event in enumerate(events):
        report = mine.apply(event)
        with per_block_assembler():
            expected = theirs.apply(event)
        assert (report.affected, report.recomputed, report.reused) == \
            (expected.affected, expected.recomputed, expected.reused)
        assert_same_blocks(mine.result, theirs.result,
                           (family, index, event))

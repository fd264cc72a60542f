"""Tests for the AS_PATH attribute and its sanity filters."""

import random

import numpy as np
import pytest

from repro.bgp.attributes import ASPath, Origin, clean_path_mask

from tests.oracle.observation import (
    has_cycle,
    has_reserved_asn,
    is_clean,
    path_links,
)


class TestASPath:
    def test_parse_and_accessors(self):
        path = ASPath([3356, 1299, 15169])
        assert path.asns == (3356, 1299, 15169)
        assert len(path) == 3
        assert 1299 in path
        assert path[1] == 1299

    def test_prepending_is_collapsed_by_dedup(self):
        path = ASPath([100, 200, 200, 200, 300])
        assert path.deduplicated().asns == (100, 200, 300)

    def test_prepending_is_not_a_cycle(self):
        assert not has_cycle(ASPath([100, 200, 200, 300]))

    def test_non_consecutive_repeat_is_a_cycle(self):
        assert has_cycle(ASPath([100, 200, 100, 300]))

    def test_reserved_asn_detection(self):
        assert has_reserved_asn(ASPath([100, 23456, 300]))
        assert has_reserved_asn(ASPath([100, 64512, 300]))
        assert not has_reserved_asn(ASPath([100, 200, 300]))

    def test_is_clean_filters(self):
        assert is_clean(ASPath([100, 200, 300]))
        assert not is_clean(ASPath([]))
        assert not is_clean(ASPath([100, 23456]))
        assert not is_clean(ASPath([100, 200, 100]))

    def test_links_are_sorted_pairs(self):
        path = ASPath([300, 100, 200])
        assert path_links(path) == [(100, 300), (100, 200)]

    def test_links_skip_prepending(self):
        path = ASPath([300, 100, 100, 200])
        assert path_links(path) == [(100, 300), (100, 200)]

    def test_equality_and_hash(self):
        assert ASPath([1, 2]) == ASPath([1, 2])
        assert hash(ASPath([1, 2])) == hash(ASPath([1, 2]))
        assert ASPath([1, 2]) != ASPath([2, 1])

    def test_str_roundtrip(self):
        assert str(ASPath([10, 20, 30])) == "10 20 30"


class TestHelpers:
    def test_origin_enum_values(self):
        assert Origin.IGP.value == "igp"
        assert Origin.INCOMPLETE.value == "incomplete"


def test_clean_path_mask_matches_is_clean():
    """The vectorised filter agrees with the scalar ``is_clean`` path by
    path: empty paths, prepends, cycles, reserved and private ASNs."""
    rng = random.Random(5)
    pool = [1, 2, 3, 3356, 23456, 64512, 65535, 131071, 4200000000,
            2**32 - 1]
    paths = [(), (7,), (7, 7), (7, 8, 7), (7, 7, 8), (8, 7, 7, 8),
             (23456,), (3356, 1299, 15169)]
    paths += [tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
              for _ in range(300)]
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(path) for path in paths], out=offsets[1:])
    values = np.asarray([asn for path in paths for asn in path],
                        dtype=np.int64)
    assert clean_path_mask(offsets, values).tolist() == \
        [is_clean(ASPath(path)) for path in paths]

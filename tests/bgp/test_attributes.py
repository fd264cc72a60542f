"""Tests for the AS_PATH attribute and its sanity filters."""

import random

import numpy as np
import pytest

from repro.bgp.attributes import ASPath, Origin, clean_path_mask, common_links


class TestASPath:
    def test_parse_and_accessors(self):
        path = ASPath.parse("3356 1299 15169")
        assert path.first_hop == 3356
        assert path.origin_asn == 15169
        assert len(path) == 3
        assert 1299 in path
        assert path[1] == 1299

    def test_empty_path_has_no_origin(self):
        with pytest.raises(ValueError):
            ASPath().origin_asn

    def test_prepending_is_collapsed_by_dedup(self):
        path = ASPath([100, 200, 200, 200, 300])
        assert path.deduplicated().asns == (100, 200, 300)

    def test_prepending_is_not_a_cycle(self):
        assert not ASPath([100, 200, 200, 300]).has_cycle()

    def test_non_consecutive_repeat_is_a_cycle(self):
        assert ASPath([100, 200, 100, 300]).has_cycle()

    def test_reserved_asn_detection(self):
        assert ASPath([100, 23456, 300]).has_reserved_asn()
        assert ASPath([100, 64512, 300]).has_reserved_asn()
        assert not ASPath([100, 200, 300]).has_reserved_asn()

    def test_is_clean_filters(self):
        assert ASPath([100, 200, 300]).is_clean()
        assert not ASPath([]).is_clean()
        assert not ASPath([100, 23456]).is_clean()
        assert not ASPath([100, 200, 100]).is_clean()

    def test_links_are_sorted_pairs(self):
        path = ASPath([300, 100, 200])
        assert path.links() == [(100, 300), (100, 200)]

    def test_links_skip_prepending(self):
        path = ASPath([300, 100, 100, 200])
        assert path.links() == [(100, 300), (100, 200)]

    def test_prepend(self):
        path = ASPath([200, 300]).prepend(100, count=2)
        assert path.asns == (100, 100, 200, 300)
        with pytest.raises(ValueError):
            ASPath([1]).prepend(2, count=0)

    def test_without_removes_route_server_asn(self):
        path = ASPath([100, 6695, 200])
        assert path.without(6695).asns == (100, 200)

    def test_equality_and_hash(self):
        assert ASPath([1, 2]) == ASPath([1, 2])
        assert hash(ASPath([1, 2])) == hash(ASPath([1, 2]))
        assert ASPath([1, 2]) != ASPath([2, 1])

    def test_str_roundtrip(self):
        assert ASPath.parse(str(ASPath([10, 20, 30]))) == ASPath([10, 20, 30])


class TestHelpers:
    def test_common_links_union(self):
        links = common_links([ASPath([1, 2, 3]), ASPath([3, 4])])
        assert links == {(1, 2), (2, 3), (3, 4)}

    def test_origin_enum_values(self):
        assert Origin.IGP.value == "igp"
        assert Origin.INCOMPLETE.value == "incomplete"


def test_clean_path_mask_matches_is_clean():
    """The vectorised filter agrees with ``ASPath.is_clean`` path by
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
        [ASPath(path).is_clean() for path in paths]

"""Tests for the BGP community attribute."""

import pytest

from repro.bgp.communities import Community


class TestCommunity:
    def test_parse_and_str(self):
        community = Community(6695, 8359)
        assert community.high == 6695
        assert community.low == 8359
        assert str(community) == "6695:8359"

    def test_value_packing(self):
        assert Community(1, 2).value == (1 << 16) | 2

    @pytest.mark.parametrize("high,low", [(-1, 0), (0, -1), (65536, 0), (0, 65536)])
    def test_out_of_range_rejected(self, high, low):
        with pytest.raises(ValueError):
            Community(high, low)

    def test_equality_hash_and_ordering(self):
        a = Community(0, 6695)
        b = Community(0, 6695)
        c = Community(6695, 0)
        assert a == b and hash(a) == hash(b)
        assert a < c

    def test_immutability(self):
        community = Community(1, 2)
        with pytest.raises(AttributeError):
            community.high = 5


"""Tests for the IPv4 prefix type."""

import pytest

from repro.bgp.prefix import Prefix


class TestParsing:
    def test_parse_roundtrip(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert str(prefix) == "192.0.2.0/24"
        assert prefix == Prefix.from_octets(192, 0, 2, 0, 24)

    def test_parse_bare_address_is_host_route(self):
        assert str(Prefix.parse("10.1.2.3")) == "10.1.2.3/32"

    def test_host_bits_are_zeroed(self):
        prefix = Prefix.parse("192.0.2.77/24")
        assert str(prefix) == "192.0.2.0/24"

    def test_from_octets(self):
        prefix = Prefix.from_octets(10, 20, 30, 0, 24)
        assert str(prefix) == "10.20.30.0/24"

    @pytest.mark.parametrize("bad", ["10.0.0/8", "300.1.1.1/24", "a.b.c.d/8",
                                     "10.0.0.0/33", "10.0.0.0/x", "10.0.0.0.0/8"])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            Prefix.parse(bad)

    def test_invalid_octet_rejected(self):
        with pytest.raises(ValueError):
            Prefix.from_octets(256, 0, 0, 0, 8)


class TestRelations:
    def test_containment(self):
        supernet = Prefix.parse("10.0.0.0/8")
        subnet = Prefix.parse("10.1.0.0/16")
        assert supernet.contains(subnet)
        assert not subnet.contains(supernet)

    def test_self_containment(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Prefix.parse("10.0.0.0/24")
        b = Prefix.parse("10.0.0.0/24")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a < b < c
        assert a <= a

    def test_immutability(self):
        prefix = Prefix.parse("10.0.0.0/24")
        with pytest.raises(AttributeError):
            prefix.length = 16
